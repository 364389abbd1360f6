package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"cmpqos/internal/server"
)

// benchmarkJSON is the part of BENCHMARK.json the catalog must match.
type benchmarkJSON struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	same := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

// TestEveryMetricPrintsWithUnit runs every workload at smoke size, both
// untraced and traced, through the built binaries, and checks that the
// last line names every metric of its kind with its unit and that the
// output gates pass.
func TestEveryMetricPrintsWithUnit(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every workload")
	}
	root := t.TempDir()
	bin := filepath.Join(root, "bin")
	build := exec.Command("go", "build", "-trimpath", "-o", bin+"/", ".", "cmpqos/cmd/qosd")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"paper", "fleet", "fleet-faults", "daemon"} {
		for _, trace := range []string{"0", "1"} {
			cmd := exec.Command(filepath.Join(bin, "cmpqosbench"), "-smoke", "-root", root,
				"--workload", w, "--seed", "0", "--seconds", "1", "--trace", trace)
			var out bytes.Buffer
			cmd.Stdout = &out
			if err := cmd.Run(); err != nil {
				t.Fatalf("%s trace %s: %v\n%s", w, trace, err, out.String())
			}
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				t.Fatalf("%s trace %s: last line: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct %v, %d of %d failed", w, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEnd
			if trace == "1" {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, want %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				switch {
				case !ok:
					t.Errorf("%s trace %s: %s missing", w, trace, m.name)
				case got.Unit != m.unit:
					t.Errorf("%s trace %s: %s in %q, want %q", w, trace, m.name, got.Unit, m.unit)
				case trace == "0" && !(got.Value > 0):
					t.Errorf("%s: end-to-end %s = %v, want > 0", w, m.name, got.Value)
				}
			}
		}
	}
}

// perturbing changes the first digit render writes.
type perturbing struct {
	w    io.Writer
	done bool
}

func (p *perturbing) Write(b []byte) (int, error) {
	if !p.done {
		if i := bytes.IndexAny(b, "0123456789"); i >= 0 {
			b = append([]byte(nil), b...)
			b[i] = '0' + (b[i]-'0'+1)%10
			p.done = true
		}
	}
	return p.w.Write(b)
}

func TestPerturbedOutputTripsDigestGate(t *testing.T) {
	r := &run{workload: "paper", input: 1, smoke: true}
	want := lookupGolden("paper", true, 1)
	if want == nil {
		t.Fatal("no golden recorded for paper smoke input seed 1")
	}
	o := paperOptions(1)
	out := &childOut{Digests: map[string]string{}}
	for _, rn := range paperRunners(true) {
		out.Digests[rn.Name] = outputDigest(func(w io.Writer) error { return rn.Run(o, w) })
	}
	if a, f := r.check(out, want); f != 0 || a != len(smokeRunners) {
		t.Fatalf("unperturbed output: %d of %d failed", f, a)
	}
	rn := paperRunners(true)[0]
	out.Digests[rn.Name] = outputDigest(func(w io.Writer) error { return rn.Run(o, &perturbing{w: w}) })
	if _, f := r.check(out, want); f != 1 {
		t.Fatalf("perturbed %s output: %d failed, want 1", rn.Name, f)
	}

	fr := &run{workload: "fleet", input: 1, smoke: true}
	fw := lookupGolden("fleet", true, 1)
	if fw == nil || fw.Outcome == nil {
		t.Fatal("no golden recorded for fleet smoke input seed 1")
	}
	bad := *fw.Outcome
	bad.Violations++
	if _, f := fr.check(&childOut{Outcome: &bad}, fw); f != 1 {
		t.Fatalf("perturbed fleet outcome: %d failed, want 1", f)
	}
}

// TestStalledRequestRaisesLatencyFromDue stalls one submit for 100ms on
// a single connection. Requests due during the stall wait for the
// connection, and their latency, counted from the due time, must show
// that wait even though the daemon answers them at once.
func TestStalledRequestRaisesLatencyFromDue(t *testing.T) {
	const stall = 100 * time.Millisecond
	const stalled = 20
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req server.SubmitRequest
		json.NewDecoder(r.Body).Decode(&req)
		if req.JobID == stalled {
			time.Sleep(stall)
		}
		json.NewEncoder(w).Encode(server.SubmitResponse{JobID: req.JobID})
	}))
	defer srv.Close()
	l := newLoader(srv.URL, 1, newRequests(1), t.Logf)
	p := l.openLoop(200, 500*time.Millisecond, false)
	if len(p.samples) != 100 {
		t.Fatalf("%d samples, want 100", len(p.samples))
	}
	if got := p.samples[stalled-1].latMS; got < ms(stall) {
		t.Errorf("stalled request latency %.1fms, want ≥ %v", got, stall)
	}
	// At 5ms spacing, the next ~19 requests fall due during the stall.
	waited := 0
	for _, s := range p.samples[stalled : stalled+10] {
		if s.latMS > 20 {
			waited++
		}
	}
	if waited < 5 {
		t.Errorf("only %d of the 10 requests due after the stall show its wait", waited)
	}
	if p.p99() < ms(stall)/2 {
		t.Errorf("p99 %.1fms does not reflect the stall", p.p99())
	}
	if l.t.failed.Load() != 0 {
		t.Errorf("%d requests failed", l.t.failed.Load())
	}
}

func TestInputSeedRange(t *testing.T) {
	for _, s := range []int64{math.MinInt64, -1, 0, 1, 31, 32, math.MaxInt64} {
		if in := inputSeed(s); in < 1 || in > NumInputSeeds {
			t.Errorf("inputSeed(%d) = %d, outside 1..%d", s, in, NumInputSeeds)
		}
	}
}
