package sim

import (
	"context"
	"reflect"
	"testing"

	"cmpqos/internal/fault"
	"cmpqos/internal/workload"
)

func clusterCfg(nodes, target int) ClusterConfig {
	node := fastConfig(Hybrid2, workload.Single("bzip2"))
	return ClusterConfig{Nodes: nodes, Node: node, AcceptTarget: target}
}

// stormClusterCfg is clusterCfg under a dense fault storm: core, way
// and latency faults land every few million cycles across the whole
// run, on busy and idle nodes alike — enough to evict reservations,
// shed elastic ways and terminate jobs.
func stormClusterCfg(nodes, target int) ClusterConfig {
	cfg := clusterCfg(nodes, target)
	cfg.Node.Faults = fault.Generate(5, 200, 400_000_000, cfg.Node.Cores, cfg.Node.L2.Ways)
	return cfg
}

// ctrlClusterCfg closes the loop on every node: the named controller
// ticks every four epochs, with a way request that leaves it an idle
// pool to grant from and wall-clock budgets that make lagging jobs
// matter, so it raises and drops admission headroom mid-run.
func ctrlClusterCfg(ctrl string, nodes, target int) ClusterConfig {
	cfg := clusterCfg(nodes, target)
	cfg.Node.EnforceWallClock = true
	cfg.Node.RequestWays = 6
	cfg.Node.Controller = ctrl
	cfg.Node.CtrlIntervalCycles = 4 * cfg.Node.EpochCycles
	return cfg
}

// runLockStep is the test-only reference fleet loop the calendar must
// reproduce: every node executes every epoch through the plain stepped
// path — no calendar, no closed-form window, no idle fast-forward — and
// stale bounds are observed over all nodes in id order after each
// epoch. Only the epoch counters may differ from RunParallel's report.
func runLockStep(t *testing.T, cfg ClusterConfig) *ClusterReport {
	t.Helper()
	cr, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for id := range cr.nodes {
		cr.cal.remove(id)
	}
	busy := func() bool {
		for _, n := range cr.nodes {
			if !n.idle() {
				return true
			}
		}
		return false
	}
	for cr.accepted < cfg.AcceptTarget || busy() {
		if cr.now > cfg.Node.MaxCycles {
			t.Fatalf("lock-step fleet exceeded the safety horizon with %d/%d accepted",
				cr.accepted, cfg.AcceptTarget)
		}
		epochEnd := cr.now + cfg.Node.EpochCycles
		// Every node is current, so the wake inside placeArrivals only
		// queues the node; the queue is not used here.
		cr.placeArrivals(epochEnd)
		for _, id := range cr.due {
			cr.inDue[id] = false
		}
		cr.due = cr.due[:0]
		for _, n := range cr.nodes {
			n.step()
		}
		for id, n := range cr.nodes {
			if n.staleBounds != cr.lastStale[id] {
				cr.lastStale[id] = n.staleBounds
				if cr.idx != nil {
					cr.idx.resetBounds(id)
				}
			}
		}
		cr.now = epochEnd
	}
	return cr.report()
}

// withoutEpochCounters blanks the only fields the calendar may change.
func withoutEpochCounters(rep *ClusterReport) *ClusterReport {
	cp := *rep
	cp.EpochsStepped, cp.EpochsSkipped = 0, 0
	return &cp
}

// TestClusterCalendarMatchesLockStep holds the one fleet loop to the
// lock-step oracle on fault-free, fault-storm, closed-loop and
// skip-disabled fleets, at one and four workers.
func TestClusterCalendarMatchesLockStep(t *testing.T) {
	noSkip := clusterCfg(4, 32)
	noSkip.Node.DisableEventSkip = true
	stormPid := ctrlClusterCfg("pid", 4, 32)
	stormPid.Node.Faults = stormClusterCfg(4, 32).Node.Faults
	// A blackout of most ways before any node has a job, under arrivals
	// sparse enough that most nodes are still waiting for their first:
	// those nodes must refuse it until recovery.
	early := clusterCfg(16, 32)
	early.Node.ProbesPerTw = 8
	early.Node.Faults = fault.Plan{Events: []fault.Event{
		{Kind: fault.WayFault, At: 1, Duration: 20_000_000, Ways: 12},
	}}
	// The trace engine never proves a steady window, so its live nodes
	// stay due every epoch while idle ones still fast-forward.
	trace := ClusterConfig{Nodes: 4, Node: TraceConfig(Hybrid2, workload.Single("bzip2")), AcceptTarget: 12}
	trace.Node.JobInstr = 2_000_000
	trace.Node.ProbesPerTw = 8
	cases := []struct {
		name string
		cfg  ClusterConfig
	}{
		{"fault-free", clusterCfg(4, 32)},
		{"fault-storm", stormClusterCfg(4, 32)},
		{"pid", ctrlClusterCfg("pid", 4, 32)},
		{"aimd", ctrlClusterCfg("aimd", 4, 32)},
		{"pid-storm", stormPid},
		{"early-blackout", early},
		{"trace-engine", trace},
		{"no-event-skip", noSkip},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := withoutEpochCounters(runLockStep(t, tc.cfg))
			for _, workers := range []int{1, 4} {
				cr, err := NewCluster(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := cr.RunParallel(context.Background(), workers)
				if err != nil {
					t.Fatal(err)
				}
				if got := withoutEpochCounters(rep); !reflect.DeepEqual(got, want) {
					t.Errorf("workers=%d: calendar diverged from lock-step:\ncalendar  %+v\nlock-step %+v",
						workers, got, want)
				}
			}
		})
	}
}

// TestClusterLateFaultMatchesFaultFree is the regression for fault
// plans forcing the slow paths: a plan whose only event, a latency
// spike, lies after the run ends must leave the run exactly as it is
// without a plan — epoch counters and probe counts included. Before
// the calendar covered fault plans, this plan stepped every node every
// epoch and probed every node per arrival.
func TestClusterLateFaultMatchesFaultFree(t *testing.T) {
	cfg := clusterSkipCfg(false)
	cr, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := cr.Run()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Node.Faults = fault.Plan{Events: []fault.Event{{
		Kind: fault.LatencySpike, At: 2 * base.TotalCycles, Duration: cfg.Node.EpochCycles, Factor: 2,
	}}}
	cr, err = NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	late, err := cr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(late, base) {
		t.Errorf("a fault after the run end changed the run:\nlate  %+v\nnone  %+v", late, base)
	}
}

// TestClusterIndexFallbackReason pins the observable fallback: an
// indexed dispatcher that has to probe every node says why, and one
// whose index ran says nothing.
func TestClusterIndexFallbackReason(t *testing.T) {
	latest := clusterCfg(3, 24)
	latest.Node.Admission = "latest"
	cases := []struct {
		name       string
		cfg        ClusterConfig
		dispatcher string
		want       string
	}{
		{"autodown", ClusterConfig{
			Nodes: 3, Node: fastConfig(AllStrictAutoDown, workload.Single("bzip2")), AcceptTarget: 24,
		}, "bestfit", "autodown"},
		{"admission-latest", latest, "bestfit", "admission=latest"},
		{"indexed", stormClusterCfg(3, 24), "bestfit", ""},
		{"indexed-pid", ctrlClusterCfg("pid", 3, 24), "oversub", ""},
		{"probeall", latest, "probeall", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Dispatcher = tc.dispatcher
			cr, err := NewCluster(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := cr.Run()
			if err != nil {
				t.Fatal(err)
			}
			if rep.IndexFallback != tc.want {
				t.Errorf("IndexFallback = %q, want %q", rep.IndexFallback, tc.want)
			}
		})
	}
}

func TestClusterValidation(t *testing.T) {
	if err := clusterCfg(2, 20).Validate(); err != nil {
		t.Fatalf("valid cluster config rejected: %v", err)
	}
	bad := clusterCfg(0, 20)
	if err := bad.Validate(); err == nil {
		t.Error("zero nodes accepted")
	}
	bad = clusterCfg(2, 0)
	if err := bad.Validate(); err == nil {
		t.Error("zero target accepted")
	}
	ep := clusterCfg(2, 20)
	ep.Node.Policy = EqualPart
	if err := ep.Validate(); err == nil {
		t.Error("EqualPart cluster accepted")
	}
}

func TestClusterRunsAndGuarantees(t *testing.T) {
	cr, err := NewCluster(clusterCfg(2, 20))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := cr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted != 20 {
		t.Fatalf("accepted = %d, want 20", rep.Accepted)
	}
	if rep.DeadlineHitRate != 1.0 {
		t.Errorf("cluster hit rate = %v, want 1.0 (the GAC only places satisfiable jobs)", rep.DeadlineHitRate)
	}
	if rep.Nodes != 2 {
		t.Fatalf("node count = %d", rep.Nodes)
	}
}

func TestClusterBalancesPlacement(t *testing.T) {
	// The GAC balances: both nodes should carry a meaningful share. The
	// worst-nodes digest carries the per-node accept counts.
	cfg := clusterCfg(2, 20)
	cfg.TopK = 2
	cr, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := cr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.WorstNodes) != 2 {
		t.Fatalf("digest size = %d, want 2", len(rep.WorstNodes))
	}
	for _, d := range rep.WorstNodes {
		if d.Accepted < 5 {
			t.Errorf("node %d carries only %d jobs — placement unbalanced", d.Node, d.Accepted)
		}
	}
}

func TestClusterScalesThroughput(t *testing.T) {
	// The Figure 2 environment scaling: doubling the nodes while
	// doubling the job count should keep the makespan roughly flat
	// (within 35%), i.e. throughput scales with nodes.
	one, err := NewCluster(clusterCfg(1, 10))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := one.Run()
	if err != nil {
		t.Fatal(err)
	}
	two, err := NewCluster(clusterCfg(2, 20))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := two.Run()
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(r2.TotalCycles) / float64(r1.TotalCycles)
	if ratio > 1.35 {
		t.Errorf("2-node makespan for 2x jobs is %.2fx the 1-node makespan; want near-flat", ratio)
	}
}

func TestClusterSingleNodeMatchesRunnerShape(t *testing.T) {
	// A 1-node cluster must behave like the standalone runner: 10 jobs,
	// all reserved deadlines met.
	cr, err := NewCluster(clusterCfg(1, 10))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := cr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted != 10 || rep.DeadlineHitRate != 1.0 {
		t.Errorf("accepted=%d hit=%v", rep.Accepted, rep.DeadlineHitRate)
	}
}

// fuzzClusterConfig decodes fuzz bytes into a small, always-valid
// fleet: 1–6 nodes, a Hybrid-1, Hybrid-2 or All-Strict pipeline, a
// static, pid or aimd controller, no plan or a generated fault storm,
// event skip on or off, a bestfit, worstfit or oversub dispatcher, and
// dense or sparse arrivals.
// Each byte drives one choice, in the order the seeds below list them;
// missing bytes read as zero, so every input decodes.
func fuzzClusterConfig(data []byte) ClusterConfig {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	policies := []Policy{Hybrid1, Hybrid2, AllStrict}
	mixes := []workload.Composition{workload.Single("bzip2"), workload.Single("mcf"), workload.Mix1()}
	controllers := []string{"static", "pid", "aimd"}
	dispatchers := []string{"bestfit", "worstfit", "oversub"}

	nodes := 1 + next()%6
	node := fastConfig(policies[next()%len(policies)], mixes[next()%len(mixes)])
	node.Seed = int64(next())
	ctrl, cadence := controllers[next()%len(controllers)], int64(1+next()%8)
	if ctrl != "static" {
		node.Controller = ctrl
		node.CtrlIntervalCycles = cadence * node.EpochCycles
	}
	if next()%2 == 1 {
		node.EnforceWallClock = true
		node.RequestWays = 6
	}
	rate, faultSeed := next()%4, int64(next())
	if rate > 0 {
		node.Faults = fault.Generate(faultSeed, 80*float64(rate), 400_000_000, node.Cores, node.L2.Ways)
	}
	node.DisableEventSkip = next()%2 == 1
	target := 4 + next()%28
	dispatcher := dispatchers[next()%len(dispatchers)]
	// Sparse arrivals leave nodes idle between jobs, where their fault
	// points must still land on time.
	node.ProbesPerTw = []float64{node.ProbesPerTw, 64, 8}[next()%3]
	return ClusterConfig{Nodes: nodes, Node: node, AcceptTarget: target, Dispatcher: dispatcher}
}

// checkClusterEquivalence asserts the fleet contracts on one decoded
// configuration: indexed bestfit places every arrival where probe-all
// does; the calendar reproduces the lock-step oracle (epoch counters
// aside); and workers 1 and 4 agree exactly.
func checkClusterEquivalence(t *testing.T, cfg ClusterConfig) {
	t.Helper()
	_, logP := runRecorded(t, cfg, "probeall")
	_, logB := runRecorded(t, cfg, "bestfit")
	if !reflect.DeepEqual(logP, logB) {
		t.Fatalf("bestfit placements diverged from probeall on %+v:\nprobeall %v\nbestfit  %v", cfg, logP, logB)
	}
	want := withoutEpochCounters(runLockStep(t, cfg))
	var w1 *ClusterReport
	for _, workers := range []int{1, 4} {
		cr, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := cr.RunParallel(context.Background(), workers)
		if err != nil {
			t.Fatal(err)
		}
		if got := withoutEpochCounters(rep); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: calendar diverged from lock-step on %+v:\ncalendar  %+v\nlock-step %+v",
				workers, cfg, got, want)
		}
		if w1 == nil {
			w1 = rep
		} else if !reflect.DeepEqual(rep, w1) {
			t.Fatalf("workers 1 and %d diverged on %+v:\nw1 %+v\nw%d %+v", workers, cfg, w1, workers, rep)
		}
	}
}

// FuzzClusterEquivalence is the generative safety net for the one
// fleet loop and the bestfit index: any decodable fleet — faults,
// controllers and event skip included — must keep bestfit equal to
// probe-all, the calendar equal to lock-step, and the result
// independent of the worker count.
func FuzzClusterEquivalence(f *testing.F) {
	// nodes, policy, mix, seed, controller, cadence, wallclock, fault
	// rate, fault seed, skip-off, target, dispatcher, arrival density
	f.Add([]byte{3, 1, 0, 1, 0, 0, 0, 0, 0, 0, 20, 0}) // quiet Hybrid-2 bestfit
	f.Add([]byte{5, 1, 0, 2, 0, 0, 0, 3, 5, 0, 27, 0}) // storm, bestfit
	f.Add([]byte{3, 2, 1, 3, 1, 3, 1, 0, 0, 0, 24, 2}) // pid All-Strict, oversub
	f.Add([]byte{4, 0, 2, 4, 2, 1, 1, 2, 9, 1, 16, 1}) // aimd storm, skip off, worstfit
	f.Add([]byte{2, 1, 0, 5, 1, 0, 1, 3, 2, 0, 31, 2}) // pid storm, oversub
	f.Add([]byte{1, 0, 1, 6, 0, 0, 0, 1, 4, 1, 8, 0})  // one node, light storm
	// Found by the fuzzer against a build that kept bounds across
	// admission-headroom drops: aimd loosens headroom mid-storm and
	// bestfit must see the earlier starts.
	f.Add([]byte{2, 1, 1, 0, 2, 1, 0, 1, 3, 0, 20, 0})
	// Found against a build that let idle nodes sleep through their
	// fault points: the probes must see the post-fault capacity.
	f.Add([]byte{5, 2, 0, 2, 0, 0, 0, 3, 99, 0, 20, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkClusterEquivalence(t, fuzzClusterConfig(data))
	})
}
