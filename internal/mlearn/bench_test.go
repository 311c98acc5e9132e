package mlearn

import (
	"math/rand"
	"testing"
)

func benchData(n int) ([][]float64, []bool) {
	rng := rand.New(rand.NewSource(7))
	return gaussianBlobsBench(rng, n, 8, 2)
}

func gaussianBlobsBench(rng *rand.Rand, n, dim int, sep float64) (x [][]float64, y []bool) {
	for i := 0; i < n; i++ {
		pos := i%2 == 0
		row := make([]float64, dim)
		for f := range row {
			mean := 0.0
			if pos {
				mean = sep
			}
			row[f] = mean + rng.NormFloat64()
		}
		x = append(x, row)
		y = append(y, pos)
	}
	return x, y
}

func BenchmarkTreeFit(b *testing.B) {
	x, y := benchData(800)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dt := NewDecisionTree()
		if err := dt.Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTreePredict(b *testing.B) {
	x, y := benchData(800)
	dt := NewDecisionTree()
	if err := dt.Fit(x, y); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dt.PredictProb(x[i%len(x)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCrossValidate(b *testing.B) {
	x, y := benchData(400)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := CrossValidate(func() Classifier { return NewDecisionTree() },
			x, y, 10, rand.New(rand.NewSource(8))); err != nil {
			b.Fatal(err)
		}
	}
}
