package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// The A/A report: run.sh runs every workload N times as set A and N times
// as set B, alternating, and hands both files of result lines here. The
// report prints each side's median and quartiles per end-to-end metric and
// fails when two sets of runs of the same code disagree by more than the
// metric's own bound, in which case no later reading of that metric can
// be trusted either.

// benchmarkFile is the part of BENCHMARK.json the report needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// taggedResult is one line run.sh wrote: the workload and the run's JSON.
type taggedResult struct {
	Workload string `json:"workload"`
	Result   result `json:"result"`
}

func readSet(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var line taggedResult
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !line.Result.Correct {
			return nil, fmt.Errorf("%s: a %s run failed its output check", path, line.Workload)
		}
		if set[line.Workload] == nil {
			set[line.Workload] = make(map[string][]float64)
		}
		for name, m := range line.Result.Metrics {
			set[line.Workload][name] = append(set[line.Workload][name], m.Value)
		}
	}
	return set, sc.Err()
}

func compareSets(arg string, stdout io.Writer) error {
	pathA, pathB, ok := strings.Cut(arg, ",")
	if !ok {
		return fmt.Errorf("-compare wants A.jsonl,B.jsonl")
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	a, err := readSet(pathA)
	if err != nil {
		return err
	}
	b, err := readSet(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "| workload | metric | A median (q1..q3) | B median (q1..q3) | A spread | B vs A | bound |\n|---|---|---|---|---|---|---|\n")
	var over []string
	for _, w := range workloads {
		for _, def := range bf.EndToEnd {
			xa, xb := a[w.name][def.Name], b[w.name][def.Name]
			if len(xa) == 0 || len(xb) == 0 {
				return fmt.Errorf("%s/%s: missing from one set", w.name, def.Name)
			}
			ma, mb := median(xa), median(xb)
			a1, a3 := quartiles(xa)
			b1, b3 := quartiles(xb)
			fmt.Fprintf(stdout, "| %s | %s | %.5g (%.5g..%.5g) | %.5g (%.5g..%.5g) | %.2f%% | %+.2f%% | %.0f%% |\n",
				w.name, def.Name, ma, a1, a3, mb, b1, b3, iqrPct(xa), 100*(mb-ma)/ma, 100*def.Bound)
			// Same code on both sides, so either may play the parent: the
			// gap is taken against the smaller median, whichever way the
			// metric's "better" points.
			if math.Abs(mb-ma)/math.Min(ma, mb) > def.Bound {
				over = append(over, w.name+"/"+def.Name)
			}
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("A and B medians differ by more than the bound: %s", strings.Join(over, ", "))
	}
	return nil
}
