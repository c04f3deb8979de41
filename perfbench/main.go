// Command perfbench is the SMACS end-to-end benchmark. One process
// stands up wallets, the HTTP Token Service (with the replicated
// one-time counter over WAL-backed replicas where the workload issues
// one-time tokens) and the simulated chain with its block producer,
// drives one workload for a fixed time, checks the outputs, and prints
// the metrics. The last line of standard output is one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run also makes a traced pass and prints the per-layer ones, the span
// table and the tracing overhead. See README.md for the workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+workloadNames())
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = add a traced pass and print the per-layer metrics")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build/work", "directory for replica WALs and span dumps")
	flag.Parse()
	if _, ok := workloads[cfg.workload]; !ok || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -trace 0|1 and -seconds > 0\n", workloadNames())
		os.Exit(2)
	}
	cfg.trace = trace == 1
	cfg.lanes = runtime.NumCPU()
	cfg.setups = defaultSetups
	cfg.out = os.Stdout
	res, err := run(&cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// defaultSetups is how many times a run stands its system up; setup_s is
// the median, and the last set-up serves the timed phase.
const defaultSetups = 5

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	lanes    int // load lanes: client goroutines, one connection each
	setups   int
	small    bool // small populations, for the short-mode test
	workdir  string
	out      io.Writer
}

// world is one stood-up workload.
type world interface {
	system() *system
	// warmup runs the workload's fixed count of set-up operations.
	warmup() error
	// timed runs the timed phase and returns every lane's record.
	timed(deadline time.Time) ([]*laneStats, error)
	// check verifies the outputs and lists every violation.
	check() []string
}

type workload struct {
	setup func(*runConfig, *tracer, string) (world, error)
	// setupTokens marks a workload whose timed phase requests no token:
	// its token metrics are those of the tokens its set-ups issue.
	setupTokens bool
}

var workloads = map[string]workload{
	"sale-onetime":  {setup: setupSale},
	"holders-reuse": {setup: setupHolders, setupTokens: true},
	"withdraw-ecf":  {setup: setupWithdraw},
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}
