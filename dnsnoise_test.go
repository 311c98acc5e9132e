package dnsnoise

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

var baseTime = time.Date(2011, 12, 1, 12, 0, 0, 0, time.UTC)

const tokenAlphabet = "0123456789abcdefghijklmnopqrstuvwxyz"

func token(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = tokenAlphabet[rng.Intn(len(tokenAlphabet))]
	}
	return string(b)
}

// buildDataset fabricates a window: nDisp disposable zones (one-shot
// algorithmic names, every query a miss) and nNorm ordinary zones (hot
// human names, mostly hits).
func buildDataset(t *testing.T, seed int64, nDisp, nNorm, perZone int) (*Dataset, []LabeledZone) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ds := NewDataset()
	var labeled []LabeledZone
	hosts := []string{"www", "mail", "api", "cdn", "shop", "img", "news", "blog", "m", "login", "search", "video"}

	addBoth := func(rec Record, below, above int) {
		for i := 0; i < below; i++ {
			if err := ds.AddBelow(rec); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < above; i++ {
			if err := ds.AddAbove(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	for z := 0; z < nDisp; z++ {
		zone := fmt.Sprintf("sig%d.vendor%d.com", z, z)
		labeled = append(labeled, LabeledZone{Zone: zone, Disposable: true})
		for i := 0; i < perZone; i++ {
			name := token(rng, 24) + "." + zone
			rec := Record{Time: baseTime, QName: name, Name: name, Type: "A", TTL: 60,
				RData: fmt.Sprintf("127.0.0.%d", rng.Intn(255))}
			addBoth(rec, 1, 1)
		}
	}
	for z := 0; z < nNorm; z++ {
		zone := fmt.Sprintf("company%d.com", z)
		labeled = append(labeled, LabeledZone{Zone: zone, Disposable: false})
		for i := 0; i < perZone; i++ {
			name := hosts[i%len(hosts)] + fmt.Sprintf("%d", i/len(hosts)) + "." + zone
			rec := Record{Time: baseTime, QName: name, Name: name, Type: "A", TTL: 3600,
				RData: fmt.Sprintf("198.18.0.%d", rng.Intn(255))}
			addBoth(rec, 15+rng.Intn(30), 1)
		}
	}
	return ds, labeled
}

func TestTrainAndMineEndToEnd(t *testing.T) {
	ds, labeled := buildDataset(t, 1, 15, 15, 12)
	clf, err := Train(ds, labeled, TrainOptions{})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	// Mine a different window with the same populations plus an unlabeled
	// disposable zone the classifier has never seen.
	mineDS, _ := buildDataset(t, 2, 10, 10, 12)
	rng := rand.New(rand.NewSource(3))
	const novelZone = "avqs.newvendor.net"
	for i := 0; i < 15; i++ {
		name := token(rng, 26) + "." + novelZone
		rec := Record{Time: baseTime, QName: name, Name: name, Type: "A", TTL: 60, RData: "127.0.0.9"}
		if err := mineDS.AddBelow(rec); err != nil {
			t.Fatal(err)
		}
		if err := mineDS.AddAbove(rec); err != nil {
			t.Fatal(err)
		}
	}
	findings, err := clf.Mine(mineDS, MineOptions{Theta: 0.5})
	if err != nil {
		t.Fatalf("Mine: %v", err)
	}
	if len(findings) == 0 {
		t.Fatal("no findings")
	}
	foundNovel := false
	for _, f := range findings {
		if f.Zone == novelZone {
			foundNovel = true
		}
		for _, n := range f.Names {
			if strings.Contains(n, ".company") {
				t.Errorf("ordinary host %q mined as disposable", n)
			}
		}
	}
	if !foundNovel {
		t.Errorf("novel disposable zone %q not found; findings: %d", novelZone, len(findings))
	}

	rep := Summarize(findings)
	if rep.Zones == 0 || rep.Names == 0 || rep.MeanPeriods < 2 {
		t.Errorf("report = %+v", rep)
	}
	// Matcher behaviour.
	sample := findings[0].Names[0]
	if !IsDisposable(findings, sample) {
		t.Errorf("IsDisposable(%q) = false for a mined name", sample)
	}
	if IsDisposable(findings, "www.unrelated-zone.org") {
		t.Error("IsDisposable(true) for an unrelated name")
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, []LabeledZone{{Zone: "x.com"}}, TrainOptions{}); !errors.Is(err, ErrEmptyDataset) {
		t.Errorf("Train(nil) = %v, want ErrEmptyDataset", err)
	}
	if _, err := Train(NewDataset(), []LabeledZone{{Zone: "x.com"}}, TrainOptions{}); !errors.Is(err, ErrEmptyDataset) {
		t.Errorf("Train(empty) = %v, want ErrEmptyDataset", err)
	}
	ds, _ := buildDataset(t, 4, 2, 2, 8)
	if _, err := Train(ds, nil, TrainOptions{}); !errors.Is(err, ErrNoLabels) {
		t.Errorf("Train(no labels) = %v, want ErrNoLabels", err)
	}
	// Single-class labels cannot train.
	if _, err := Train(ds, []LabeledZone{{Zone: "sig0.vendor0.com", Disposable: true}}, TrainOptions{MinGroupSize: 2}); err == nil {
		t.Error("Train(single class) should fail")
	}
}

func TestMineErrors(t *testing.T) {
	ds, labeled := buildDataset(t, 5, 5, 5, 10)
	clf, err := Train(ds, labeled, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clf.Mine(NewDataset(), MineOptions{}); !errors.Is(err, ErrEmptyDataset) {
		t.Errorf("Mine(empty) = %v, want ErrEmptyDataset", err)
	}
	var uninit Classifier
	if _, err := uninit.Mine(ds, MineOptions{}); err == nil {
		t.Error("Mine on zero-value Classifier should fail")
	}
}

func TestDatasetRejectsUnknownType(t *testing.T) {
	ds := NewDataset()
	rec := Record{Time: baseTime, QName: "x.test", Name: "x.test", Type: "BOGUS", RData: "1.2.3.4"}
	if err := ds.AddBelow(rec); err == nil {
		t.Error("AddBelow with unknown type should fail")
	}
	if err := ds.AddAbove(rec); err == nil {
		t.Error("AddAbove with unknown type should fail")
	}
	rec.Type, rec.RData = "A", "1.2.3"
	if err := ds.AddBelow(rec); err == nil {
		t.Error("AddBelow of an A record whose rdata is no address should fail")
	}
	if ds.NumRecords() != 0 {
		t.Errorf("NumRecords = %d, want 0", ds.NumRecords())
	}
}

func TestDatasetNormalizesNames(t *testing.T) {
	ds := NewDataset()
	rec := Record{Time: baseTime, QName: "X.Example.COM.", Name: "X.Example.COM.", Type: "A", TTL: 60, RData: "192.0.2.1"}
	if err := ds.AddBelow(rec); err != nil {
		t.Fatal(err)
	}
	rec2 := rec
	rec2.QName, rec2.Name = "x.example.com", "x.example.com"
	if err := ds.AddBelow(rec2); err != nil {
		t.Fatal(err)
	}
	if ds.NumRecords() != 1 {
		t.Errorf("NumRecords = %d, want 1 (case/dot normalization)", ds.NumRecords())
	}
}

func TestSummarizeEmpty(t *testing.T) {
	rep := Summarize(nil)
	if rep.Zones != 0 || rep.Names != 0 {
		t.Errorf("empty Summarize = %+v", rep)
	}
	if IsDisposable(nil, "x.test") {
		t.Error("IsDisposable with no findings should be false")
	}
}
