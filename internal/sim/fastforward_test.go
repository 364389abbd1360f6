package sim

import (
	"bytes"
	"context"
	"reflect"
	"testing"
	"time"

	"cmpqos/internal/fault"
	"cmpqos/internal/trace"
	"cmpqos/internal/workload"
)

// runWithEventSkip executes cfg with the event-horizon fast-forward
// forced on or off and returns the canonical JSON rendering, the full
// event trace, and the report (for the skip counters).
func runWithEventSkip(t *testing.T, cfg Config, disable bool) ([]byte, []trace.Event, *Report) {
	t.Helper()
	cfg.DisableEventSkip = disable
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), rep.Recorder.Events(), rep
}

// TestEventSkipByteIdentity verifies the tentpole invariant: with the
// event-horizon fast-forward enabled, every simulation is byte-for-byte
// identical to the epoch-by-epoch run. The scenarios cover every class
// of event a horizon must stop at: arrivals, completions, steal-crossing
// verdicts, rollbacks, automatic downgrade and switch-back, wall-clock
// termination, phase transitions, scripted arrivals, and the
// no-admission policies. Each run also pins the epoch-count invariant —
// stepped + skipped is the same number either way — and that the skip
// actually engages where claimed.
func TestEventSkipByteIdentity(t *testing.T) {
	phased := workload.Composition{Name: "phased-bzip2"}
	for i := 0; i < 10; i++ {
		phased.Jobs = append(phased.Jobs, workload.JobTemplate{
			Benchmark: "bzip2",
			Phases: []workload.Phase{
				{Until: 0.5, MPIScale: 0.5},
				{Until: 1.0, MPIScale: 1.0},
			},
		})
	}
	scripted := func() Config {
		cfg := DefaultConfig(Hybrid2, workload.Composition{Name: "scripted"})
		cfg.JobInstr = 5_000_000
		cfg.StealIntervalInstr = 250_000
		cfg.Script = []ScriptedJob{
			{Template: workload.JobTemplate{Benchmark: "bzip2"}, Arrival: 0, DeadlineFactor: 2},
			{Template: workload.JobTemplate{Benchmark: "bzip2"}, Arrival: 0, DeadlineFactor: 2},
			{Template: workload.JobTemplate{Benchmark: "gobmk", Hint: workload.HintOpportunistic}, Arrival: 2000},
			{Template: workload.JobTemplate{Benchmark: "mcf"}, Arrival: 40_000_000, DeadlineFactor: 3, Instr: 10_000_000},
		}
		return cfg
	}()
	cases := []struct {
		name     string
		cfg      Config
		wantSkip bool
	}{
		{"arrivals-completions-steals-rollbacks", planCacheCfg(Hybrid2, "bzip2"), true},
		{"autodown-switchback", planCacheCfg(AllStrictAutoDown, "bzip2"), true},
		{"wallclock-termination", func() Config {
			cfg := planCacheCfg(Hybrid2, "bzip2")
			cfg.EnforceWallClock = true
			cfg.OverrunFactor = 3
			cfg.OverrunJobSlot = 0
			return cfg
		}(), true},
		{"equalpart", planCacheCfg(EqualPart, "gobmk"), true},
		{"ucp", planCacheCfg(UCPPart, "gobmk"), true},
		{"phased-profiles", fastConfig(AllStrict, phased), true},
		{"scripted-arrivals", scripted, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			onJSON, onEvents, onRep := runWithEventSkip(t, tc.cfg, false)
			offJSON, offEvents, offRep := runWithEventSkip(t, tc.cfg, true)
			if !bytes.Equal(onJSON, offJSON) {
				t.Errorf("report JSON differs between event skip on and off\non:  %s\noff: %s",
					onJSON, offJSON)
			}
			if !reflect.DeepEqual(onEvents, offEvents) {
				t.Errorf("event traces differ: %d events with skip vs %d without",
					len(onEvents), len(offEvents))
			}
			if got, want := onRep.EpochsStepped+onRep.EpochsSkipped,
				offRep.EpochsStepped+offRep.EpochsSkipped; got != want {
				t.Errorf("epoch count %d with skip != %d without", got, want)
			}
			if offRep.EpochsSkipped != 0 {
				t.Errorf("skip-off run reports %d skipped epochs", offRep.EpochsSkipped)
			}
			if tc.wantSkip && onRep.EpochsSkipped == 0 {
				t.Errorf("fast-forward never engaged (stepped %d epochs); the identity proves nothing",
					onRep.EpochsStepped)
			}
		})
	}
}

// TestEventSkipEngages pins the performance claim's precondition at the
// paper's own scale (200M-instruction jobs): between QoS events the run
// is overwhelmingly steady, so the closed form must absorb the bulk of
// the epochs — including the period-2 bus limit cycle the epoch/bus
// feedback settles into — not fire occasionally.
func TestEventSkipEngages(t *testing.T) {
	_, _, rep := runWithEventSkip(t, DefaultConfig(Hybrid2, workload.Single("bzip2")), false)
	total := rep.EpochsStepped + rep.EpochsSkipped
	if total == 0 {
		t.Fatal("simulation made no epochs")
	}
	if frac := float64(rep.EpochsSkipped) / float64(total); frac < 0.75 {
		t.Errorf("fast-forward absorbed %d/%d epochs (%.0f%%); want most of the run",
			rep.EpochsSkipped, total, 100*frac)
	}
}

// TestEventSkipFaultStorm runs generated fault plans (every fault kind,
// several densities) through both paths: horizons must shrink to the
// next fault instant — preserving byte identity — while still skipping
// the steady stretches between faults.
func TestEventSkipFaultStorm(t *testing.T) {
	skippedSomewhere := false
	for _, pol := range []Policy{AllStrict, AllStrictAutoDown, Hybrid2} {
		for seed := int64(1); seed <= 3; seed++ {
			plan := fault.Generate(seed, 4, fault.DefaultHorizon, 4, 16)
			cfg := faultCfg(pol, plan)
			onJSON, onEvents, onRep := runWithEventSkip(t, cfg, false)
			offJSON, offEvents, _ := runWithEventSkip(t, cfg, true)
			if !bytes.Equal(onJSON, offJSON) {
				t.Errorf("%s seed %d: fault-storm reports differ between skip on and off", pol, seed)
			}
			if !reflect.DeepEqual(onEvents, offEvents) {
				t.Errorf("%s seed %d: fault-storm event traces differ", pol, seed)
			}
			if onRep.EpochsSkipped > 0 {
				skippedSomewhere = true
			}
		}
	}
	if !skippedSomewhere {
		t.Error("no fault-storm run skipped a single epoch; the fault horizon is over-conservative")
	}
}

// clusterSkipCfg is the shared fleet scenario for the differential
// cluster tests: big enough that nodes sleep and wake across arrivals,
// small enough to run four configurations in test time.
func clusterSkipCfg(disableSkip bool) ClusterConfig {
	node := DefaultConfig(Hybrid2, workload.Single("bzip2"))
	node.JobInstr = 5_000_000
	node.StealIntervalInstr = 100_000
	node.DisableEventSkip = disableSkip
	return ClusterConfig{
		Nodes:        32,
		Node:         node,
		AcceptTarget: 96,
	}
}

// TestClusterEventModeByteIdentity verifies the calendar layer: with
// event skip on, the fleet must produce a ClusterReport identical (skip
// counters aside) to the same fleet with event skip off, where every
// live node steps every epoch, at any worker count.
func TestClusterEventModeByteIdentity(t *testing.T) {
	run := func(disableSkip bool, workers int) *ClusterReport {
		t.Helper()
		cr, err := NewCluster(clusterSkipCfg(disableSkip))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := cr.RunParallel(context.Background(), workers)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	baseline := run(true, 1)
	onW1 := run(false, 1)
	onW4 := run(false, 4)
	if !reflect.DeepEqual(withoutEpochCounters(onW1), withoutEpochCounters(baseline)) {
		t.Errorf("event-mode fleet (workers=1) differs from epoch-by-epoch:\non:  %+v\noff: %+v",
			onW1, baseline)
	}
	if !reflect.DeepEqual(onW1, onW4) {
		t.Errorf("event-mode fleet differs across worker counts:\nw1: %+v\nw4: %+v", onW1, onW4)
	}
	if onW1.EpochsSkipped == 0 {
		t.Error("event-mode fleet never fast-forwarded a node epoch")
	}
	if onW1.EpochsStepped >= baseline.EpochsStepped {
		t.Errorf("event mode stepped %d node-epochs, epoch-by-epoch stepped %d; the calendar saves nothing",
			onW1.EpochsStepped, baseline.EpochsStepped)
	}
}

// TestClusterFaultedFleetSkipsAndIndexes pins that a fault plan no
// longer forces the slow paths: a faulted fleet still fast-forwards
// node epochs on the calendar, and bestfit still answers arrivals from
// its index, probing fewer than N nodes per arrival on average.
func TestClusterFaultedFleetSkipsAndIndexes(t *testing.T) {
	cfg := clusterSkipCfg(false)
	cfg.Node.Faults = fault.Generate(1, 4, fault.DefaultHorizon, cfg.Node.Cores, cfg.Node.L2.Ways)
	cr, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := cr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.IndexFallback != "" {
		t.Errorf("faulted bestfit fleet fell back to probing: %q", rep.IndexFallback)
	}
	if rep.EpochsSkipped == 0 {
		t.Error("faulted fleet never fast-forwarded a node epoch")
	}
	arrivals := int64(rep.Accepted + rep.RejectedProbes)
	if perArrival := float64(rep.LACProbes) / float64(arrivals); perArrival >= float64(cfg.Nodes) {
		t.Errorf("faulted fleet probed %.1f nodes per arrival, want < %d", perArrival, cfg.Nodes)
	}
}

// TestClusterCancellation is the satellite regression for the fleet
// loop's context handling: a canceled context must abort the run — both
// before the first epoch and mid-fleet — rather than surviving to the
// next multiple-of-256 poll as the legacy loop allowed.
func TestClusterCancellation(t *testing.T) {
	for _, disableSkip := range []bool{false, true} {
		cfg := clusterSkipCfg(disableSkip)
		cfg.AcceptTarget = 10_000 // long enough that cancellation races the run, not the finish

		cr, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := cr.RunParallel(ctx, 2); err == nil {
			t.Errorf("disableSkip=%v: pre-canceled context did not abort the fleet", disableSkip)
		}

		cr, err = NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel = context.WithCancel(context.Background())
		go func() {
			time.Sleep(5 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		if _, err := cr.RunParallel(ctx, 2); err == nil {
			t.Errorf("disableSkip=%v: mid-run cancel did not abort the fleet", disableSkip)
		} else if waited := time.Since(start); waited > 5*time.Second {
			t.Errorf("disableSkip=%v: cancellation took %v to land", disableSkip, waited)
		}
	}
}

// TestRunContextCancellation covers the single-node engine: cancellation
// must land both on the stepped path and inside the closed-form advance
// loop.
func TestRunContextCancellation(t *testing.T) {
	for _, disableSkip := range []bool{false, true} {
		cfg := planCacheCfg(Hybrid2, "bzip2")
		cfg.DisableEventSkip = disableSkip
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := r.RunContext(ctx); err == nil {
			t.Errorf("disableSkip=%v: pre-canceled context did not abort the run", disableSkip)
		}
	}
}
