// Command bench is the repository's benchmark: four workloads that drive
// the system from outside through its exported functions, five end-to-end
// metrics measured with no instrumentation installed, and a traced pass
// that decomposes each workload into per-layer numbers. BENCHMARK.json at
// the repository root names every workload and metric this program prints;
// README.md in this directory says why each exists.
//
//	bench -workload sim-day -seed 1 -seconds 20 -trace 0
//	bench -workload sim-day -seed 1 -seconds 20 -trace 1
//	bench -compare a.jsonl,b.jsonl      (the A/A report of run.sh)
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Everything else goes to standard
// error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

// benchProcs pins the scheduler: the reference host has two vCPUs, and a
// number measured at another GOMAXPROCS is a different number.
const benchProcs = 2

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool   // two tiny rounds: the schema test's scale
	outDir   string // span files and the replay workload's trace files
	log      io.Writer
}

// result is the JSON object a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	runtime.GOMAXPROCS(benchProcs)
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		cfg     config
		trace   = fs.Int("trace", 0, "0: end-to-end metrics, no wrappers installed; 1: traced run, per-layer metrics")
		scale   = fs.String("scale", "full", "full, or smoke (two tiny rounds, for the schema test)")
		compare = fs.String("compare", "", "A.jsonl,B.jsonl: print the A/A report over two sets of result lines and exit")
	)
	fs.StringVar(&cfg.workload, "workload", "", "one of: "+workloadNames())
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for the generated traffic and the query order (the namespace is fixed)")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "length of the measured phase")
	fs.StringVar(&cfg.outDir, "out", "benchmark/out", "directory for span files and scratch trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare != "" {
		if err := compareSets(*compare, stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	cfg.trace = *trace != 0
	cfg.log = stderr
	switch *scale {
	case "full":
	case "smoke":
		cfg.smoke = true
	default:
		fmt.Fprintf(stderr, "bench: unknown -scale %q\n", *scale)
		return 2
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}
