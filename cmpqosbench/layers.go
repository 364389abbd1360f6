package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"sort"
	"strings"
	"time"

	"cmpqos/internal/cache"
	"cmpqos/internal/experiments"
	"cmpqos/internal/stats"
	"cmpqos/internal/workload"
)

// metricSpec names one metric and its unit. The two lists mirror
// BENCHMARK.json; the self-tests check that they agree.
type metricSpec struct{ name, unit string }

// endToEnd is printed by every untraced run, on every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer is printed by every traced run. A layer that is not on a
// workload's path reads 0 there.
var perLayer = []metricSpec{
	{"wall_s", "s"},
	{"experiments.ablation-partition_s", "s"},
	{"experiments.ablation-sampling_s", "s"},
	{"experiments.engines_s", "s"},
	{"experiments.rest_s", "s"},
	{"workload.stream_next_ns", "ns"},
	{"cache.partitioned_access_ns", "ns"},
	{"cache.global_access_ns", "ns"},
	{"cache.shadow_observe_ns", "ns"},
	{"cache.miss_ratio", "ratio"},
	{"sim.epochs_stepped", "count"},
	{"sim.epochs_skipped", "count"},
	{"sim.skip_frac", "ratio"},
	{"sim.lac_probes", "count"},
	{"sim.probes_per_arrival", "ratio"},
	{"sim.ns_per_stepped_epoch", "ns"},
	{"sim.dispatch_cpu_s", "s"},
	{"sim.step_cpu_s", "s"},
	{"sim.fastforward_cpu_s", "s"},
	{"sim.cluster_cpu_s", "s"},
	{"qos.timeline_cpu_s", "s"},
	{"qos.lac_cpu_s", "s"},
	{"runtime.gc_cpu_s", "s"},
	{"qos.gac_decide_ns", "ns"},
	{"qos.wal_write_ns", "ns"},
	{"qos.wal_fsync_ns", "ns"},
	{"server.codec_ns", "ns"},
	{"server.ttfb_ms_p50", "ms"},
	{"server.queue_depth_max", "count"},
	{"server.wal_records_per_admit", "ratio"},
	{"server.shed", "count"},
	{"server.degraded", "count"},
	{"load.conn_wait_ms_p99", "ms"},
	{"load.gen_late_ms_max", "ms"},
	{"load.fell_behind", "count"},
	{"admit_batch_s", "s"},
	{"admit_p50_ms.r500", "ms"},
	{"admit_p99_ms.r500", "ms"},
	{"admit_p50_ms.r2000", "ms"},
	{"admit_p99_ms.r2000", "ms"},
	{"max_admit_rate", "1/s"},
	{"trace.overhead_s", "s"},
}

// layerUnit returns the unit of a per-layer metric.
func layerUnit(name string) string {
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	panic("cmpqosbench: no per-layer metric " + name)
}

// fillLayers adds every per-layer metric the workload does not reach,
// reading 0.
func fillLayers(res *result) {
	for _, m := range perLayer {
		if _, ok := res.Metrics[m.name]; !ok {
			res.Metrics[m.name] = metric{0, m.unit}
		}
	}
}

// The ablation-partition measurement, mirrored from
// experiments.AblationPartition: bzip2 at 7 ways against one of eight
// co-runners, 400,000 warm-up and 400,000 measured access pairs per
// run. The replay's miss ratio must equal the experiment's, which
// guards the mirror against drift.
const (
	apRuns  = 8
	apPairs = 400_000
	apWays  = 7
	// replayChunk is how many access pairs one timed batch covers.
	replayChunk = 4096
	// shadowEvery is the paper's shadow-tag set-sampling interval.
	shadowEvery = 8
)

var apCoRunners = []string{"mcf", "milc", "gcc", "libquantum", "soplex", "sjeng", "hmmer", "astar"}

// replayTimes accumulates batch-timed layer calls.
type replayTimes struct {
	next, part, global, shadow     time.Duration
	nextN, partN, globalN, shadowN int64
}

// cacheReplay times the workload stream, the partitioned and global
// caches and the shadow tags on the ablation-partition stream pair. It
// returns the per-layer metrics and an empty string when the replayed
// per-set miss ratios reproduce the experiment's summary bit for bit.
func cacheReplay(o experiments.Options) (map[string]float64, string) {
	ref := experiments.AblationPartition(o)
	cfg := cache.PaperL2()
	var t replayTimes
	var perSet stats.Summary
	for s := 0; s < apRuns; s++ {
		perSet.Add(replayPair(cfg, false, int64(s)+o.Seed, &t))
	}
	replayPair(cfg, true, o.Seed, &t)
	check := ""
	if perSet.Mean() != ref.PerSet.Mean() || perSet.Min() != ref.PerSet.Min() || perSet.Max() != ref.PerSet.Max() {
		check = fmt.Sprintf("replayed per-set miss ratio mean %v [%v, %v], experiment reports %v [%v, %v]",
			perSet.Mean(), perSet.Min(), perSet.Max(), ref.PerSet.Mean(), ref.PerSet.Min(), ref.PerSet.Max())
	}
	ns := func(d time.Duration, n int64) float64 { return safeRatio(float64(d.Nanoseconds()), float64(n)) }
	return map[string]float64{
		"workload.stream_next_ns":     ns(t.next, t.nextN),
		"cache.partitioned_access_ns": ns(t.part, t.partN),
		"cache.global_access_ns":      ns(t.global, t.globalN),
		"cache.shadow_observe_ns":     ns(t.shadow, t.shadowN),
		"cache.miss_ratio":            perSet.Mean(),
	}, check
}

// replayPair runs one ablation-partition measurement (run index seed)
// in timed batches: draw a batch of addresses from both streams, access
// the cache with them in the experiment's order, then feed the results
// to the shadow tags (per-set runs only). It returns the job's miss
// ratio over the measured half.
func replayPair(cfg cache.Config, global bool, seed int64, t *replayTimes) float64 {
	var c cache.Interface
	var missRatio func(int) float64
	var st *cache.ShadowTags
	if global {
		g := cache.NewGlobal(cfg)
		g.SetTargetWays(0, apWays)
		g.SetTargetWays(1, apWays)
		c, missRatio = g, g.MissRatio
	} else {
		p := cache.NewPartitioned(cfg)
		st = cache.NewShadowTags(cfg, shadowEvery)
		for owner := 0; owner < 2; owner++ {
			p.SetTarget(owner, apWays)
			p.SetClass(owner, cache.ClassReserved)
			st.SetTarget(owner, apWays)
			st.SetClass(owner, cache.ClassReserved)
		}
		c, missRatio = p, p.MissRatio
	}
	job := workload.MustByName("bzip2").NewStream(7, 0)
	co := workload.MustByName(apCoRunners[seed%int64(len(apCoRunners))]).NewStream(seed, 1)
	ja := make([]cache.Addr, replayChunk)
	ca := make([]cache.Addr, replayChunk)
	jr := make([]cache.Result, replayChunk)
	cr := make([]cache.Result, replayChunk)
	for phase := 0; phase < 2; phase++ {
		for done := 0; done < apPairs; done += replayChunk {
			k := min(replayChunk, apPairs-done)
			t0 := time.Now()
			for i := 0; i < k; i++ {
				ja[i] = job.Next()
				ca[i] = co.Next()
			}
			t1 := time.Now()
			for i := 0; i < k; i++ {
				jr[i] = c.Access(0, ja[i])
				cr[i] = c.Access(1, ca[i])
			}
			t2 := time.Now()
			t.next += t1.Sub(t0)
			t.nextN += int64(2 * k)
			if global {
				t.global += t2.Sub(t1)
				t.globalN += int64(2 * k)
				continue
			}
			t.part += t2.Sub(t1)
			t.partN += int64(2 * k)
			for i := 0; i < k; i++ {
				st.Observe(0, ja[i], jr[i])
				st.Observe(1, ca[i], cr[i])
			}
			t.shadow += time.Since(t2)
			t.shadowN += int64(2 * k)
		}
		if phase == 0 {
			c.ResetStats()
		}
	}
	return missRatio(0)
}

// cpuGroups maps a per-layer metric to the source files whose CPU-profile
// self time it sums. Paths are as -trimpath records them.
var cpuGroups = []struct {
	metric string
	match  func(file string) bool
}{
	{"sim.dispatch_cpu_s", func(f string) bool { return f == "cmpqos/internal/sim/dispatch.go" }},
	{"sim.fastforward_cpu_s", func(f string) bool { return f == "cmpqos/internal/sim/fastforward.go" }},
	{"sim.cluster_cpu_s", func(f string) bool {
		return f == "cmpqos/internal/sim/cluster.go" || f == "cmpqos/internal/sim/nodeheap.go"
	}},
	// Every other simulator file is the per-node epoch step.
	{"sim.step_cpu_s", func(f string) bool { return strings.HasPrefix(f, "cmpqos/internal/sim/") }},
	{"qos.timeline_cpu_s", func(f string) bool {
		return f == "cmpqos/internal/qos/timeline.go" || f == "cmpqos/internal/qos/resindex.go"
	}},
	// Every other qos file: LAC probes and admission decisions.
	{"qos.lac_cpu_s", func(f string) bool { return strings.HasPrefix(f, "cmpqos/internal/qos/") }},
	{"runtime.gc_cpu_s", func(f string) bool {
		return strings.HasPrefix(f, "runtime/mgc") || f == "runtime/mbitmap.go" || f == "runtime/mwbbuf.go"
	}},
}

// profileGroups sums a CPU profile's self time by source file with the
// toolchain's pprof and folds the files into the cpuGroups metrics.
func profileGroups(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-files", "-nodecount=100000", path)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, errb.String())
	}
	files, err := parsePprofTop(out.Bytes())
	if err != nil {
		return nil, err
	}
	groups := map[string]float64{}
	for _, g := range cpuGroups {
		groups[g.metric] = 0
	}
	names := make([]string, 0, len(files))
	for f := range files {
		names = append(names, f)
	}
	sort.Strings(names)
	for _, f := range names {
		for _, g := range cpuGroups {
			if g.match(f) {
				groups[g.metric] += files[f]
				break
			}
		}
	}
	return groups, nil
}

// parsePprofTop reads `pprof -top -files` output into seconds of self
// time per file.
func parsePprofTop(text []byte) (map[string]float64, error) {
	files := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	inTable := false
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if !inTable {
			inTable = len(fields) > 0 && fields[0] == "flat"
			continue
		}
		if len(fields) < 6 {
			continue
		}
		d, err := parsePprofDuration(fields[0])
		if err != nil {
			return nil, fmt.Errorf("pprof line %q: %w", sc.Text(), err)
		}
		files[trimModule(fields[5])] += d.Seconds()
	}
	if !inTable {
		return nil, fmt.Errorf("pprof printed no table:\n%s", text)
	}
	return files, sc.Err()
}

// trimModule drops the version -trimpath records for a replaced module
// ("cmpqos@v0.0.0-…/internal/sim/x.go" → "cmpqos/internal/sim/x.go").
func trimModule(file string) string {
	if mod, rest, ok := strings.Cut(file, "@"); ok && !strings.Contains(mod, "/") {
		if _, path, ok := strings.Cut(rest, "/"); ok {
			return mod + "/" + path
		}
	}
	return file
}

func parsePprofDuration(s string) (time.Duration, error) {
	if s == "0" {
		return 0, nil
	}
	return time.ParseDuration(s)
}
