package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"syscall"
	"time"

	"cmpqos/internal/experiments"
	"cmpqos/internal/fault"
	"cmpqos/internal/sim"
	"cmpqos/internal/workload"
)

// childFlags are the settings of a child repetition.
var childFlags struct {
	input      int64
	traced     bool
	cpuprofile string
	smoke      bool
	setupOnly  bool
}

// outcome is what a fleet run simulated: the values the fleet gates
// compare exactly against the recorded goldens.
type outcome struct {
	Accepted        int     `json:"accepted"`
	RejectedProbes  int     `json:"rejected_probes"`
	Violations      int     `json:"violations"`
	Terminated      int     `json:"terminated"`
	TotalCycles     int64   `json:"total_cycles"`
	CPUCycles       int64   `json:"cpu_cycles"`
	DeadlineHitRate float64 `json:"deadline_hit_rate"`
}

// engineCounters are the fleet engine's own counters: per-layer
// metrics, not correctness checks.
type engineCounters struct {
	EpochsStepped int64 `json:"epochs_stepped"`
	EpochsSkipped int64 `json:"epochs_skipped"`
	LACProbes     int64 `json:"lac_probes"`
}

// childOut is the one JSON line a child repetition prints.
type childOut struct {
	// ReadyUnixNano is the wall-clock instant of the first measured
	// call; the parent subtracts its exec instant to get setup_s.
	ReadyUnixNano int64              `json:"ready_unix_ns"`
	WallS         float64            `json:"wall_s"`
	CPUS          float64            `json:"cpu_s"`
	Digests       map[string]string  `json:"digests,omitempty"`
	RunnerS       map[string]float64 `json:"runner_s,omitempty"`
	Outcome       *outcome           `json:"outcome,omitempty"`
	Counters      *engineCounters    `json:"counters,omitempty"`
	Layers        map[string]float64 `json:"layers,omitempty"`
	// ReplayCheck is empty when the traced cache replay reproduced the
	// experiment's own miss ratio, and says how it differed otherwise.
	ReplayCheck string `json:"replay_check,omitempty"`
}

// Workload sizes. The smoke sizes exist for the self-tests only.
const (
	fleetNodes, fleetJobs           = 5000, 50000
	faultNodes, faultJobs           = 200, 2000
	smokeFleetNodes, smokeFleetJobs = 100, 1000
	smokeFaultNodes, smokeFaultJobs = 20, 200
	// faultRate is each node's fault-plan rate in events per gigacycle.
	// The plan is one fixed storm (generator seed faultPlanSeed); the
	// input seed varies the arrivals and node streams under it. Drawn
	// from the input seed, the storms alone moved probe-all work 1.9×
	// between seeds (90k–167k rejected probes), which would swamp any
	// change the workload exists to show.
	faultRate     = 2
	faultPlanSeed = 1
	// setupSamples is how many set-up-only children a run adds to the
	// set-up times of its repetitions.
	setupSamples = 5
	// minReps is the fewest repetitions a run reports the median of, so
	// one slow repetition cannot set it.
	minReps = 3
)

// smokeRunners is the paper subset run at smoke size: the fast
// table-engine figures.
var smokeRunners = map[string]bool{"fig1": true, "fig4": true, "table1": true, "fig5": true}

// paperOptions is the `qossim -exp all -parallel 0` configuration with
// the input seed.
func paperOptions(input int64) experiments.Options {
	return experiments.Options{Seed: input, Workers: runtime.NumCPU()}
}

func paperRunners(smoke bool) []experiments.Runner {
	all := experiments.Registry()
	if !smoke {
		return all
	}
	var out []experiments.Runner
	for _, r := range all {
		if smokeRunners[r.Name] {
			out = append(out, r)
		}
	}
	return out
}

// clusterConfig builds the fleet or fleet-faults cluster for an input
// seed. Every node gets the same fault plan, because that is how
// ClusterConfig applies faults.
func clusterConfig(name string, input int64, smoke bool) sim.ClusterConfig {
	node := sim.DefaultConfig(sim.Hybrid2, workload.Single("bzip2"))
	node.Seed = input
	nodes, jobs := fleetNodes, fleetJobs
	if smoke {
		nodes, jobs = smokeFleetNodes, smokeFleetJobs
	}
	if name == "fleet-faults" {
		nodes, jobs = faultNodes, faultJobs
		if smoke {
			nodes, jobs = smokeFaultNodes, smokeFaultJobs
		}
		node.Faults = fault.Generate(faultPlanSeed, faultRate, fault.DefaultHorizon, node.Cores, node.L2.Ways)
	}
	return sim.ClusterConfig{Nodes: nodes, Node: node, AcceptTarget: jobs, Dispatcher: "bestfit"}
}

// runChild runs one repetition of a simulation workload in this process
// and writes its childOut as one JSON line.
func runChild(name string, w io.Writer) error {
	var out childOut
	var err error
	switch name {
	case "paper":
		err = childPaper(&out)
	case "fleet", "fleet-faults":
		err = childFleet(name, &out)
	default:
		err = fmt.Errorf("no child mode for %q", name)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(&out)
}

func childPaper(out *childOut) error {
	o := paperOptions(childFlags.input)
	runners := paperRunners(childFlags.smoke)
	out.Digests = make(map[string]string, len(runners))
	if childFlags.traced {
		out.RunnerS = make(map[string]float64, len(runners))
	}
	out.ReadyUnixNano = time.Now().UnixNano()
	if childFlags.setupOnly {
		return nil
	}
	start, cpu0 := time.Now(), cpuTime()
	for _, rn := range runners {
		t0 := time.Now()
		out.Digests[rn.Name] = outputDigest(func(w io.Writer) error { return rn.Run(o, w) })
		if childFlags.traced {
			out.RunnerS[rn.Name] = time.Since(t0).Seconds()
		}
	}
	out.WallS = time.Since(start).Seconds()
	out.CPUS = cpuTime() - cpu0
	if childFlags.traced {
		layers, check := cacheReplay(o)
		out.Layers, out.ReplayCheck = layers, check
	}
	return nil
}

// outputDigest hashes everything render writes; a render error becomes
// a digest no recorded value can match.
func outputDigest(render func(io.Writer) error) string {
	h := sha256.New()
	if err := render(h); err != nil {
		return "error: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func childFleet(name string, out *childOut) error {
	cr, err := sim.NewCluster(clusterConfig(name, childFlags.input, childFlags.smoke))
	if err != nil {
		return err
	}
	if childFlags.setupOnly {
		out.ReadyUnixNano = time.Now().UnixNano()
		return nil
	}
	if childFlags.cpuprofile != "" {
		f, err := os.Create(childFlags.cpuprofile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer f.Close()
	}
	out.ReadyUnixNano = time.Now().UnixNano()
	start, cpu0 := time.Now(), cpuTime()
	rep, err := cr.Run()
	out.WallS = time.Since(start).Seconds()
	out.CPUS = cpuTime() - cpu0
	if childFlags.cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return err
	}
	out.Outcome = &outcome{
		Accepted:        rep.Accepted,
		RejectedProbes:  rep.RejectedProbes,
		Violations:      rep.Violations,
		Terminated:      rep.Terminated,
		TotalCycles:     rep.TotalCycles,
		CPUCycles:       rep.CPUCycles,
		DeadlineHitRate: rep.DeadlineHitRate,
	}
	out.Counters = &engineCounters{
		EpochsStepped: rep.EpochsStepped,
		EpochsSkipped: rep.EpochsSkipped,
		LACProbes:     rep.LACProbes,
	}
	return nil
}

// rep is one finished child repetition, as the parent saw it.
type rep struct {
	out    *childOut
	setupS float64 // exec → first measured call
	rssMB  float64 // the child's peak resident set (VmHWM)
}

// child runs one repetition in a fresh process, with extra child flags.
func (r *run) child(extra ...string) (*rep, error) {
	args := append([]string{"-child", r.workload, "-input-seed", strconv.FormatInt(r.input, 10)}, extra...)
	if r.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(r.self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child %s: %w", r.workload, err)
	}
	var out childOut
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &out); err != nil {
		return nil, fmt.Errorf("child %s output: %w", r.workload, err)
	}
	ru, _ := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	var rss float64
	if ru != nil {
		rss = float64(ru.Maxrss) / 1024 // KiB → MiB
	}
	return &rep{out: &out, setupS: float64(out.ReadyUnixNano-start.UnixNano()) / 1e9, rssMB: rss}, nil
}

// check compares a repetition's outputs with the goldens recorded for
// its input seed, returning the operations it stands for and how many
// of them failed. A missing golden is a failure, never a skip.
func (r *run) check(out *childOut, want *goldenEntry) (attempted, failed int) {
	if want == nil {
		want = &goldenEntry{}
	}
	if r.workload == "paper" {
		for _, rn := range paperRunners(r.smoke) {
			attempted++
			if got := out.Digests[rn.Name]; got == "" || got != want.Digests[rn.Name] {
				failed++
				r.logf("runner %s: digest %q, recorded %q", rn.Name, got, want.Digests[rn.Name])
			}
		}
		return attempted, failed
	}
	if out.Outcome == nil || want.Outcome == nil || *out.Outcome != *want.Outcome {
		r.logf("outcome %+v differs from the recorded %+v", out.Outcome, want.Outcome)
		return 1, 1
	}
	return 1, 0
}

// runSim measures a simulation workload: set-up-only children, then
// cold child repetitions until the time budget is spent, reporting
// medians.
func runSim(r *run) (*result, error) {
	want := lookupGolden(r.workload, r.smoke, r.input)
	if r.trace {
		return traceSim(r, want)
	}
	res := &result{Metrics: map[string]metric{}}
	var setups, cpus, rss []float64
	start := time.Now()
	budget := time.Duration(r.seconds * float64(time.Second))
	// Set-up is short next to a repetition, so extra children that stop
	// after it give setup_s more samples than the repetitions alone.
	for i := 0; i < setupSamples; i++ {
		p, err := r.child("-setup-only")
		if err != nil {
			return nil, err
		}
		setups = append(setups, p.setupS)
	}
	for {
		t0 := time.Now()
		p, err := r.child()
		if err != nil {
			return nil, err
		}
		a, f := r.check(p.out, want)
		res.Attempted += a
		res.Failed += f
		setups = append(setups, p.setupS)
		cpus = append(cpus, p.out.CPUS)
		rss = append(rss, p.rssMB)
		r.logf("rep %d: wall %.3fs cpu %.3fs setup %.4fs rss %.1fMB", len(cpus), p.out.WallS, p.out.CPUS, p.setupS, p.rssMB)
		// Take at least minReps, then start another only if at least
		// half of it fits the budget.
		if len(cpus) >= minReps && time.Since(start)+time.Since(t0)/2 > budget {
			break
		}
	}
	res.Correct = res.Failed == 0
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["cpu_s"] = metric{median(cpus), "s"}
	res.Metrics["peak_rss_mb"] = metric{median(rss), "MB"}
	return res, nil
}

// traceSim is the traced run of a simulation workload: one untraced
// and one traced cold repetition. Outputs of both must match the
// goldens; the per-layer metrics come from the traced one, and the
// difference of their walls is the tracing overhead.
func traceSim(r *run, want *goldenEntry) (*result, error) {
	res := &result{Metrics: map[string]metric{}}
	plain, err := r.child()
	if err != nil {
		return nil, err
	}
	prof := filepath.Join(r.work, "cpu.pprof")
	flags := []string{"-traced"}
	if r.workload != "paper" {
		flags = append(flags, "-cpuprofile", prof)
	}
	traced, err := r.child(flags...)
	if err != nil {
		return nil, err
	}
	for _, p := range []*rep{plain, traced} {
		a, f := r.check(p.out, want)
		res.Attempted += a
		res.Failed += f
	}
	res.Metrics["trace.overhead_s"] = metric{traced.out.WallS - plain.out.WallS, "s"}
	res.Metrics["wall_s"] = metric{plain.out.WallS, "s"}

	if r.workload == "paper" {
		other := 0.0
		for name, s := range traced.out.RunnerS {
			switch name {
			case "ablation-partition", "ablation-sampling", "engines":
				res.Metrics["experiments."+name+"_s"] = metric{s, "s"}
			default:
				other += s
			}
		}
		res.Metrics["experiments.rest_s"] = metric{other, "s"}
		for name, v := range traced.out.Layers {
			res.Metrics[name] = metric{v, layerUnit(name)}
		}
		res.Attempted++
		if traced.out.ReplayCheck != "" {
			res.Failed++
			r.logf("cache replay self-check: %s", traced.out.ReplayCheck)
		}
	} else {
		c := traced.out.Counters
		if plain.out.Counters == nil || c == nil || *plain.out.Counters != *c {
			return nil, fmt.Errorf("engine counters differ between the untraced and traced runs")
		}
		o := traced.out.Outcome
		total := float64(c.EpochsStepped + c.EpochsSkipped)
		res.Metrics["sim.epochs_stepped"] = metric{float64(c.EpochsStepped), "count"}
		res.Metrics["sim.epochs_skipped"] = metric{float64(c.EpochsSkipped), "count"}
		res.Metrics["sim.skip_frac"] = metric{safeRatio(float64(c.EpochsSkipped), total), "ratio"}
		res.Metrics["sim.lac_probes"] = metric{float64(c.LACProbes), "count"}
		res.Metrics["sim.probes_per_arrival"] = metric{safeRatio(float64(c.LACProbes), float64(o.Accepted+o.RejectedProbes)), "ratio"}
		res.Metrics["sim.ns_per_stepped_epoch"] = metric{safeRatio(plain.out.CPUS*1e9, float64(c.EpochsStepped)), "ns"}
		groups, err := profileGroups(prof)
		if err != nil {
			return nil, err
		}
		for name, s := range groups {
			res.Metrics[name] = metric{s, "s"}
		}
	}
	res.Correct = res.Failed == 0
	fillLayers(res)
	return res, nil
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the CPU time this process has used, user and system, in
// seconds.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
