package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cmpqos/internal/qos"
	"cmpqos/internal/server"
)

// Daemon workload settings.
const (
	// setupStarts is how many fresh qosd starts setup_s takes the median of.
	setupStarts = 9
	// batchPairs is one closed-loop batch: submit+cancel pairs pushed
	// through the connections as fast as the daemon answers.
	batchPairs, smokeBatchPairs = 2000, 100
	// The fixed open-loop rates, in submits per second.
	rateLow, rateHigh = 500, 2000
	// The ladder's latency limit and the share of the offered rate a
	// step must achieve so that no backlog grows.
	p99Limit     = 10.0 // ms
	achievedFrac = 0.98
	// The ladder moves geometrically from ladderStart by ladderRatio, at
	// most ladderSteps steps, until a step changes verdict, then bisects
	// between the last passing and the first failing rate ladderBisect
	// times.
	ladderStart  = 1000.0
	ladderRatio  = 1.25
	ladderBisect = 3
	ladderSteps  = 8
	// Shares of --seconds the phases get: closed-loop batches (at least
	// three), the two fixed rates, and each ladder step (at least
	// minStep).
	batchShare, lowShare, highShare, stepShare = 0.2, 0.25, 0.1, 0.04
	minStep                                    = 0.25
	// genLateLimit flags a run whose generator woke this late for a
	// request that was due while its connection was idle: at half the
	// latency limit, its own lateness could decide a ladder step.
	genLateLimit = p99Limit / 2 // ms
	// Request shape, as qosload sends it by default.
	reqCores    = 1
	reqTW       = 1_000_000
	reqDeadline = 4_000_000_000
	reqSlack    = 0.05
)

// clientTimeout bounds every request.
const clientTimeout = 5 * time.Second

var modes = []string{"strict", "elastic", "opportunistic"}

// qosdProc is one running daemon.
type qosdProc struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{}
}

// errExited reports a qosd that exited before it served.
var errExited = errors.New("qosd exited before serving")

// startQosd starts qosd on a fresh state directory, retrying on a fresh
// port and directory if it exits first: the free port it was given can
// be taken before qosd binds it.
func (r *run) startQosd(dir string) (p *qosdProc, setup float64, err error) {
	for attempt := 0; attempt < 3; attempt++ {
		p, setup, err = r.startQosdOnce(fmt.Sprintf("%s-%d", dir, attempt))
		if !errors.Is(err, errExited) {
			break
		}
		r.logf("%v; retrying", err)
	}
	return p, setup, err
}

// startQosdOnce execs qosd and waits for its first healthy /healthz. It
// returns the exec-to-healthy time.
func (r *run) startQosdOnce(dir string) (*qosdProc, float64, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(r.qosd, "-addr", addr, "-dir", dir)
	cmd.Stdout, cmd.Stderr = io.Discard, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	p := &qosdProc{cmd: cmd, url: "http://" + addr, done: make(chan struct{})}
	go func() { cmd.Wait(); close(p.done) }()
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(p.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, time.Since(start).Seconds(), nil
			}
		}
		select {
		case <-p.done:
			return nil, 0, fmt.Errorf("%w: %v", errExited, cmd.ProcessState)
		case <-time.After(time.Millisecond):
		}
		if time.Since(start) > 30*time.Second {
			p.stop()
			return nil, 0, fmt.Errorf("qosd not healthy after 30s")
		}
	}
}

// stop drains the daemon with SIGTERM, kills it if it does not exit,
// waits for it and returns its peak resident set in MiB.
func (p *qosdProc) stop() float64 {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(15 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
	if ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// cpuTime reads the CPU time qosd has used so far, user and system, in
// seconds, from /proc/<pid>/stat (in clock ticks of 1/100 s).
func (p *qosdProc) cpuTime() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The fields after the parenthesised command name start at field 3;
	// utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(b, ')')
	var f []string
	if i >= 0 {
		f = strings.Fields(string(b[i+1:]))
	}
	if len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc/%d/stat", p.cmd.Process.Pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return float64(utime+stime) / 100, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// splitmix is a tiny seeded generator for request shapes.
type splitmix struct{ s uint64 }

func (g *splitmix) next() uint64 {
	g.s += 0x9e3779b97f4a7c15
	z := g.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// requests generates the daemon's inputs: modes rotate strict, elastic,
// opportunistic; ways are drawn from the seed; job ids never repeat.
type requests struct {
	mu   sync.Mutex
	rng  splitmix
	next int
}

func newRequests(seed int64) *requests {
	return &requests{rng: splitmix{uint64(seed) * 0x2545f4914f6cdd1d}, next: 1}
}

func (q *requests) take() server.SubmitRequest {
	q.mu.Lock()
	defer q.mu.Unlock()
	id := q.next
	q.next++
	req := server.SubmitRequest{
		JobID: id,
		Mode:  modes[id%len(modes)],
		Cores: reqCores,
		Ways:  1 + int(q.rng.next()%4),
	}
	if req.Mode != "opportunistic" {
		req.TW, req.DeadlineIn = reqTW, reqDeadline
	}
	if req.Mode == "elastic" {
		req.Slack = reqSlack
	}
	return req
}

// tally counts what the client saw; the end-of-run audit compares it
// with the daemon's own counters.
type tally struct {
	attempted, failed        atomic.Int64
	submitOK, accepted, shed atomic.Int64
	cancelOK                 atomic.Int64
}

// loader drives one daemon from at most nproc connections.
type loader struct {
	url    string
	client *http.Client
	conns  int
	reqs   *requests
	t      *tally
	log    func(string, ...any)
}

func newLoader(url string, conns int, reqs *requests, log func(string, ...any)) *loader {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &loader{
		url:    url,
		client: &http.Client{Transport: tr, Timeout: clientTimeout},
		conns:  conns,
		reqs:   reqs,
		t:      &tally{},
		log:    log,
	}
}

// sample is one submit as the generator saw it.
type sample struct {
	// latMS runs from the due time to the answer read. A failed submit
	// counts as the client timeout, so it misses any latency limit.
	latMS      float64
	failed     bool
	connWaitMS float64 // due → request written (traced only)
	ttfbMS     float64 // request written → first answer byte (traced only)
}

// pair sends one submit and, if it was admitted, its cancel. due is
// when the submit was scheduled; latency counts from it.
func (l *loader) pair(due time.Time, traced bool) sample {
	s := sample{latMS: ms(clientTimeout), failed: true}
	req := l.reqs.take()
	body, _ := json.Marshal(req)
	ctx := context.Background()
	var wrote, first time.Time
	if traced {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			WroteRequest:         func(httptrace.WroteRequestInfo) { wrote = time.Now() },
			GotFirstResponseByte: func() { first = time.Now() },
		})
	}
	l.t.attempted.Add(1)
	status, data, err := l.post(ctx, "/v1/submit", body)
	done := time.Now()
	if traced && !wrote.IsZero() {
		s.connWaitMS = ms(wrote.Sub(due))
		if !first.IsZero() {
			s.ttfbMS = ms(first.Sub(wrote))
		}
	}
	var ans server.SubmitResponse
	switch {
	case err != nil:
		l.log("submit %d: %v", req.JobID, err)
	case status == http.StatusServiceUnavailable:
		l.t.shed.Add(1)
	case status != http.StatusOK:
		l.log("submit %d: status %d: %s", req.JobID, status, data)
	default:
		if err := json.Unmarshal(data, &ans); err != nil {
			l.log("submit %d: %v", req.JobID, err)
			break
		}
		l.t.submitOK.Add(1)
		s.latMS, s.failed = ms(done.Sub(due)), false
	}
	if s.failed {
		l.t.failed.Add(1)
		return s
	}
	if !ans.Accepted {
		return s
	}
	l.t.accepted.Add(1)
	cb, _ := json.Marshal(server.CancelRequest{JobID: req.JobID})
	l.t.attempted.Add(1)
	if status, data, err := l.post(context.Background(), "/v1/cancel", cb); err != nil || status != http.StatusOK {
		l.t.failed.Add(1)
		l.log("cancel %d: status %d err %v: %s", req.JobID, status, err, data)
	} else {
		l.t.cancelOK.Add(1)
	}
	return s
}

func (l *loader) post(ctx context.Context, path string, body []byte) (int, []byte, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, l.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := l.client.Do(hreq)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// closedLoop pushes n submit+cancel pairs through the connections, each
// connection sending its next pair as soon as the last is answered,
// and returns the wall time.
func (l *loader) closedLoop(n int, traced bool) time.Duration {
	var left atomic.Int64
	left.Store(int64(n))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < l.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for left.Add(-1) >= 0 {
				l.pair(time.Now(), traced)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// phase is one open-loop run at a fixed offered rate.
type phase struct {
	rate     float64
	samples  []sample
	genLate  float64 // ms, the latest wake-up for a request due on an idle connection
	elapsed  time.Duration
	achieved float64 // answered submits per second, first due → last answer
}

func (p *phase) p50() float64 { return percentile(lats(p.samples), 0.50) }
func (p *phase) p99() float64 { return percentile(lats(p.samples), 0.99) }

// passes says whether the daemon kept up: p99 within the limit and no
// growing backlog.
func (p *phase) passes() bool {
	return p.p99() <= p99Limit && p.achieved >= achievedFrac*p.rate
}

func lats(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.latMS
	}
	return out
}

// openLoop offers rate submits per second for d. Request k is due at
// start + k/rate whether or not earlier ones were answered; a
// connection that is still busy sends it late, and that wait counts in
// its latency.
func (l *loader) openLoop(rate float64, d time.Duration, traced bool) *phase {
	total := max(1, int(rate*d.Seconds()))
	interval := time.Duration(float64(time.Second) / rate)
	p := &phase{rate: rate, samples: make([]sample, total)}
	var next atomic.Int64
	late := make([]float64, l.conns)
	start := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for c := 0; c < l.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				k := next.Add(1) - 1
				if k >= int64(total) {
					return
				}
				due := start.Add(time.Duration(k) * interval)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
					late[c] = math.Max(late[c], ms(time.Since(due)))
				}
				p.samples[k] = l.pair(due, traced)
			}
		}(c)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	for _, g := range late {
		p.genLate = math.Max(p.genLate, g)
	}
	ok := 0
	for _, s := range p.samples {
		if !s.failed {
			ok++
		}
	}
	p.achieved = float64(ok) / p.elapsed.Seconds()
	return p
}

// ladder finds the highest rate that passes: geometric steps from
// ladderStart (up while steps pass, down while they fail), then
// bisection between the last pass and the first failure. It returns 0
// when no step passes.
func (l *loader) ladder(step time.Duration, steps, bisect int) (best float64, ran []*phase) {
	try := func(rate float64) bool {
		p := l.openLoop(rate, step, false)
		ran = append(ran, p)
		l.log("ladder %.0f/s: p99 %.2fms achieved %.0f/s", rate, p.p99(), p.achieved)
		return p.passes()
	}
	lo, hi := 0.0, 0.0
	rate := ladderStart
	if try(rate) {
		lo = rate
		for i := 1; i < steps && hi == 0; i++ {
			if rate *= ladderRatio; try(rate) {
				lo = rate
			} else {
				hi = rate
			}
		}
	} else {
		hi = rate
		for i := 1; i < steps && lo == 0; i++ {
			if rate /= ladderRatio; try(rate) {
				lo = rate
			} else {
				hi = rate
			}
		}
	}
	if lo == 0 || hi == 0 {
		return lo, ran
	}
	for i := 0; i < bisect; i++ {
		if mid := math.Sqrt(lo * hi); try(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, ran
}

// health fetches the daemon's /healthz counters.
func (l *loader) health() (*server.Health, error) {
	resp, err := l.client.Get(l.url + "/healthz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var h server.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, err
	}
	return &h, nil
}

// pollDepth samples the daemon's queue depth every few milliseconds
// until stop is closed and returns the largest depth seen.
func (l *loader) pollDepth(stop <-chan struct{}) int {
	client := &http.Client{Timeout: time.Second}
	best := 0
	for {
		select {
		case <-stop:
			return best
		case <-time.After(5 * time.Millisecond):
		}
		resp, err := client.Get(l.url + "/healthz")
		if err != nil {
			continue
		}
		var h server.Health
		if json.NewDecoder(resp.Body).Decode(&h) == nil {
			best = max(best, h.QueueDepth)
		}
		resp.Body.Close()
	}
}

// audit checks that every acknowledged submit and cancel is reflected
// in the daemon's final counters.
func (l *loader) audit(h *server.Health) error {
	switch {
	case h.Accepted != l.t.accepted.Load():
		return fmt.Errorf("daemon accepted %d, client saw %d acks", h.Accepted, l.t.accepted.Load())
	case h.Jobs != 0:
		return fmt.Errorf("%d jobs live after every admit was cancelled", h.Jobs)
	case h.WALSeq != l.t.submitOK.Load()+l.t.cancelOK.Load():
		return fmt.Errorf("wal_seq %d, client saw %d answered submits + %d cancels",
			h.WALSeq, l.t.submitOK.Load(), l.t.cancelOK.Load())
	case h.Shed != l.t.shed.Load():
		return fmt.Errorf("daemon shed %d, client saw %d", h.Shed, l.t.shed.Load())
	}
	return nil
}

// runDaemon measures qosd: setup over several fresh starts, closed-loop
// batches, the fixed open-loop rates (qosd's CPU time over the 500/s
// schedule gives cpu_s) and the rate ladder, then the audit. The traced
// run adds a traced batch and rate-2,000 phase and the in-process layer
// replays.
func runDaemon(r *run) (*result, error) {
	S := r.seconds
	var setups []float64
	var d *qosdProc
	for i := 0; i < setupStarts; i++ {
		p, s, err := r.startQosd(filepath.Join(r.work, fmt.Sprintf("state-%d", i)))
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
		if i < setupStarts-1 {
			p.stop()
		} else {
			d = p
		}
	}
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	conns := runtime.NumCPU()
	l := newLoader(d.url, conns, newRequests(r.input), r.logf)
	pairs := batchPairs
	if r.smoke {
		pairs = smokeBatchPairs
	}
	l.closedLoop(pairs/4, false) // warm the connections and the daemon

	var walls []float64
	start := time.Now()
	for len(walls) < 3 || time.Since(start).Seconds() < batchShare*S {
		walls = append(walls, l.closedLoop(pairs, false).Seconds())
	}
	r.logf("closed-loop batches of %d pairs: %v", pairs, walls)
	cpu0, err := d.cpuTime()
	if err != nil {
		return nil, err
	}
	low := l.openLoop(rateLow, seconds(lowShare*S), false)
	cpu1, err := d.cpuTime()
	if err != nil {
		return nil, err
	}
	high := l.openLoop(rateHigh, seconds(highShare*S), false)
	ladderMax := ladderSteps
	if r.smoke {
		ladderMax = 2
	}
	best, steps := l.ladder(seconds(max(stepShare*S, minStep)), ladderMax, ladderBisect)
	genLate := 0.0
	for _, p := range append([]*phase{low, high}, steps...) {
		genLate = math.Max(genLate, p.genLate)
	}

	res := &result{Metrics: map[string]metric{}}
	daemonLine := map[string]float64{
		"admit_batch_s":        median(walls),
		"admit_p50_ms.r500":    low.p50(),
		"admit_p99_ms.r500":    low.p99(),
		"admit_p50_ms.r2000":   high.p50(),
		"admit_p99_ms.r2000":   high.p99(),
		"max_admit_rate":       best,
		"load.gen_late_ms_max": genLate,
	}
	behind := 0.0
	if genLate > genLateLimit {
		behind = 1
		r.logf("WARNING: the load generator fell behind (woke %.2fms late); latencies are suspect", genLate)
	}
	daemonLine["load.fell_behind"] = behind

	if r.trace {
		traced, batch, err := traceDaemon(r, l, pairs, S)
		if err != nil {
			return nil, err
		}
		for k, v := range traced {
			daemonLine[k] = v
		}
		daemonLine["trace.overhead_s"] = batch - median(walls)
	}

	res.Attempted = int(l.t.attempted.Load()) + 1 // and the audit
	res.Failed = int(l.t.failed.Load())
	h, err := l.health()
	if err == nil {
		daemonLine["server.wal_records_per_admit"] = safeRatio(float64(h.WALSeq), float64(h.Accepted))
		daemonLine["server.shed"] = float64(h.Shed)
		daemonLine["server.degraded"] = float64(h.Degraded)
		err = l.audit(h)
	}
	if err != nil {
		res.Failed++
		r.logf("audit failed: %v", err)
	}
	rss := d.stop()
	d = nil
	res.Correct = res.Failed == 0
	// The daemon-only numbers are not end-to-end metrics, which print on
	// every workload, so they print here by name with their units.
	names := make([]string, 0, len(daemonLine))
	for k := range daemonLine {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("daemon %-34s %14.6g %s\n", k, daemonLine[k], layerUnit(k))
	}
	if r.trace {
		for k, v := range daemonLine {
			res.Metrics[k] = metric{v, layerUnit(k)}
		}
		fillLayers(res)
		return res, nil
	}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	// The closed-loop batches track the host's speed too closely to
	// gate on (their median moved 27% between runs of one code), so the
	// gated cost is qosd's own CPU time over the fixed 500/s schedule.
	res.Metrics["cpu_s"] = metric{cpu1 - cpu0, "s"}
	res.Metrics["peak_rss_mb"] = metric{rss, "MB"}
	return res, nil
}

// traceDaemon runs the traced phases against the live daemon and the
// in-process replays of the layers behind it. It also returns the wall
// of its traced closed-loop batch.
func traceDaemon(r *run, l *loader, pairs int, S float64) (map[string]float64, float64, error) {
	out := map[string]float64{}
	stop := make(chan struct{})
	depth := make(chan int, 1)
	go func() { depth <- l.pollDepth(stop) }()
	batch := l.closedLoop(pairs, true).Seconds()
	high := l.openLoop(rateHigh, seconds(highShare*S), true)
	close(stop)
	out["server.queue_depth_max"] = float64(<-depth)
	var wait, ttfb []float64
	for _, s := range high.samples {
		if !s.failed {
			wait = append(wait, s.connWaitMS)
			ttfb = append(ttfb, s.ttfbMS)
		}
	}
	out["load.conn_wait_ms_p99"] = percentile(wait, 0.99)
	out["server.ttfb_ms_p50"] = percentile(ttfb, 0.50)

	n := 20000
	walN := 500
	if r.smoke {
		n, walN = 2000, 50
	}
	out["qos.gac_decide_ns"] = replayGAC(r.input, n)
	write, fsync, err := replayWAL(filepath.Join(r.work, "replay.wal"), r.input, walN)
	if err != nil {
		return nil, 0, err
	}
	out["qos.wal_write_ns"], out["qos.wal_fsync_ns"] = write, fsync
	codec, err := replayCodec(r.input, n)
	if err != nil {
		return nil, 0, err
	}
	out["server.codec_ns"] = codec
	return out, batch, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// qosdClockHz is qosd's default node clock, used to space the replayed
// arrivals at the rate-2,000 phase's interval.
const qosdClockHz = 2e9

// replayRUM converts a generated request as qosd does, arrival stamped.
func replayRUM(req server.SubmitRequest, arrival int64) (qos.Request, error) {
	var mode qos.Mode
	switch req.Mode {
	case "strict":
		mode = qos.Strict()
	case "elastic":
		mode = qos.Elastic(req.Slack)
	case "opportunistic":
		mode = qos.Opportunistic()
	default:
		return qos.Request{}, fmt.Errorf("mode %q", req.Mode)
	}
	rum := qos.RUM{Resources: qos.ResourceVector{Cores: req.Cores, CacheWays: req.Ways}, MaxWallClock: req.TW}
	if req.DeadlineIn > 0 {
		rum.Deadline = arrival + req.DeadlineIn
	}
	return qos.Request{JobID: req.JobID, Target: rum, Mode: mode, Arrival: arrival}, nil
}

// replayGAC replays the daemon's request sequence (each admit followed
// by its cancel) on an in-process GAC shaped like qosd's default and
// returns the mean Submit time.
func replayGAC(seed int64, n int) float64 {
	lac := qos.NewLAC(qos.ResourceVector{Cores: 4, CacheWays: 16})
	gac := qos.NewGAC(lac)
	reqs := newRequests(seed)
	step := int64(qosdClockHz / rateHigh)
	var total time.Duration
	for i := 0; i < n; i++ {
		req, err := replayRUM(reqs.take(), int64(i)*step)
		if err != nil {
			panic(err)
		}
		t0 := time.Now()
		_, dec := gac.Submit(req)
		total += time.Since(t0)
		if dec.Accepted {
			lac.Complete(req.JobID, req.Mode, req.Arrival)
		}
	}
	return float64(total.Nanoseconds()) / float64(n)
}

// replayWAL appends n admit/cancel record pairs to a log on the state
// directory's filesystem, timing Append (sync off) and Sync apart.
func replayWAL(path string, seed int64, n int) (writeNS, fsyncNS float64, err error) {
	w, err := qos.CreateWAL(path, false)
	if err != nil {
		return 0, 0, err
	}
	defer w.Close()
	reqs := newRequests(seed)
	var write, sync time.Duration
	seq := int64(0)
	for i := 0; i < n; i++ {
		req, err := replayRUM(reqs.take(), int64(i)*1_000_000)
		if err != nil {
			return 0, 0, err
		}
		rum, _ := req.Target.(qos.RUM)
		for _, rec := range []qos.WALRecord{
			{Op: qos.WALAdmit, JobID: req.JobID, Mode: req.Mode, RUM: rum, Arrival: req.Arrival, FinalMode: req.Mode},
			{Op: qos.WALCancel, JobID: req.JobID, Now: req.Arrival + 1},
		} {
			seq++
			rec.Seq = seq
			t0 := time.Now()
			if err := w.Append(rec); err != nil {
				return 0, 0, err
			}
			t1 := time.Now()
			if err := w.Sync(); err != nil {
				return 0, 0, err
			}
			write += t1.Sub(t0)
			sync += time.Since(t1)
		}
	}
	recs := float64(2 * n)
	return float64(write.Nanoseconds()) / recs, float64(sync.Nanoseconds()) / recs, os.Remove(path)
}

// replayCodec times the daemon's JSON work per submit: decoding a
// SubmitRequest and encoding a SubmitResponse, in batches.
func replayCodec(seed int64, n int) (float64, error) {
	reqs := newRequests(seed)
	bodies := make([][]byte, n)
	for i := range bodies {
		b, err := json.Marshal(reqs.take())
		if err != nil {
			return 0, err
		}
		bodies[i] = b
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	start := time.Now()
	for _, b := range bodies {
		var req server.SubmitRequest
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return 0, err
		}
		buf.Reset()
		if err := enc.Encode(server.SubmitResponse{Accepted: true, JobID: req.JobID, Mode: req.Mode, Seq: int64(req.JobID)}); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n), nil
}
