// Command cmpqosbench is the repository's end-to-end benchmark. It runs
// one workload per invocation and prints, as the last line of standard
// output, one JSON object with the keys correct, attempted, failed and
// metrics:
//
//	cmpqosbench --workload paper --seed 7 --seconds 20 --trace 0
//
// Workloads (see README.md for the layer map and predictions):
//
//   - paper: every experiments.Registry() runner, the `qossim -exp all
//     -parallel 0` clock.
//   - fleet: a 5,000-node bestfit fleet, 50,000 accepted jobs, no faults.
//   - fleet-faults: a 200-node fleet, 2,000 jobs, one fault plan per node.
//   - daemon: a child qosd with fsync on, driven over loopback.
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it
// makes a separate traced run and prints the per-layer metrics. Every
// measured repetition of a simulation workload runs in a fresh child
// process, because the simulator's package-level caches make a warm
// repetition faster than what a user of qossim pays per invocation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's settings.
type run struct {
	workload string
	seed     int64 // the --seed argument
	input    int64 // the input seed derived from it (see inputSeed)
	seconds  float64
	trace    bool
	smoke    bool   // smoke sizes, for the self-tests
	self     string // this executable, re-run as the per-repetition child
	qosd     string // the qosd binary
	work     string // scratch directory for profiles and daemon state
}

var workloads = map[string]func(*run) (*result, error){
	"paper":        runSim,
	"fleet":        runSim,
	"fleet-faults": runSim,
	"daemon":       runDaemon,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: paper, fleet, fleet-faults or daemon")
		seed     = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 20, "measurement budget in seconds")
		trace    = flag.Int("trace", 0, "1 makes the traced run and prints the per-layer metrics")
		root     = flag.String("root", ".", "checkout root; binaries and state live under <root>/.bench_build")
		smoke    = flag.Bool("smoke", false, "run at smoke sizes (self-tests only; goldens are recorded for both sizes)")
		child    = flag.String("child", "", "internal: run one repetition of this workload in this process")
		record   = flag.String("record", "", "write the golden outputs of input seeds 1..NumInputSeeds to this file and exit")
	)
	// Child-only flags.
	flag.Int64Var(&childFlags.input, "input-seed", 0, "internal: input seed of a child repetition")
	flag.BoolVar(&childFlags.traced, "traced", false, "internal: trace the child repetition")
	flag.StringVar(&childFlags.cpuprofile, "cpuprofile", "", "internal: write the child's CPU profile here")
	flag.BoolVar(&childFlags.setupOnly, "setup-only", false, "internal: stop the child after set-up")
	flag.Parse()

	if *child != "" {
		childFlags.smoke = *smoke
		if err := runChild(*child, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "cmpqosbench child %s: %v\n", *child, err)
			os.Exit(1)
		}
		return
	}
	self, err := os.Executable()
	if err != nil {
		fail(err)
	}
	bin := filepath.Dir(self)
	if *record != "" {
		if err := recordGoldens(*record, self); err != nil {
			fail(err)
		}
		return
	}
	fn, ok := workloads[*workload]
	if !ok {
		fail(fmt.Errorf("unknown --workload %q (have paper, fleet, fleet-faults, daemon)", *workload))
	}
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	build := filepath.Join(*root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		fail(err)
	}
	work, err := os.MkdirTemp(build, "run-")
	if err != nil {
		fail(err)
	}
	defer os.RemoveAll(work)
	r := &run{
		workload: *workload,
		seed:     *seed,
		input:    inputSeed(*seed),
		seconds:  *seconds,
		trace:    *trace == 1,
		smoke:    *smoke,
		self:     self,
		qosd:     filepath.Join(bin, "qosd"),
		work:     work,
	}
	h := hostRecord(work)
	hb, _ := json.Marshal(h)
	fmt.Printf("host %s\n", hb)
	res, err := fn(r)
	if err != nil {
		os.RemoveAll(work)
		fail(err)
	}
	printResult(os.Stdout, r, res)
}

// printResult writes one human-readable line per metric, then the
// result JSON as the last line.
func printResult(w *os.File, r *run, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "workload %s seed %d (input seed %d) trace %v: attempted %d failed %d correct %v\n",
		r.workload, r.seed, r.input, r.trace, res.Attempted, res.Failed, res.Correct)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Fprintln(w, string(b))
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "cmpqosbench: %v\n", err)
	os.Exit(1)
}

// NumInputSeeds is how many input seeds have recorded golden outputs.
// Every --seed maps onto one of them, so every run is checked against a
// value recorded for its inputs.
const NumInputSeeds = 32

// inputSeed maps a --seed onto 1..NumInputSeeds.
func inputSeed(seed int64) int64 {
	m := seed % NumInputSeeds
	if m < 0 {
		m += NumInputSeeds
	}
	return m + 1
}

// logf writes a progress line to standard error.
func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cmpqosbench %s: %s\n", r.workload, strings.TrimSpace(fmt.Sprintf(format, args...)))
}
