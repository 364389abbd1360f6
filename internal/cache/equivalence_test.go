package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// The differential tests below drive every cache model and its
// stamp-based reference (reference_test.go) through the same operation
// stream and require identical observable behaviour after every
// operation: the Result of each access, per-owner Stats, Occupancy,
// per-set occupancy, and write-backs. One byte-coded stream feeds all
// five models, so the seeded streams and the fuzz target share a
// decoder.

// equivGeometries are the shapes the streams run on: tiny and paper-like
// associativities, a direct-mapped cache, a single-set cache and sets
// sampled at every 8th set.
var equivGeometries = []Config{
	{SizeBytes: 8 * 4 * 64, Ways: 4, BlockSize: 64, Owners: 4},
	{SizeBytes: 16 * 8 * 32, Ways: 8, BlockSize: 32, Owners: 4},
	{SizeBytes: 8 * 16 * 64, Ways: 16, BlockSize: 64, Owners: 4},
	{SizeBytes: 32 * 1 * 64, Ways: 1, BlockSize: 64, Owners: 4},
	{SizeBytes: 1 * 4 * 16, Ways: 4, BlockSize: 16, Owners: 4},
	{SizeBytes: 16 * 32 * 64, Ways: 32, BlockSize: 64, Owners: 4},
}

// opReader decodes an operation stream; it reports exhaustion so a
// stream of any length is a valid input.
type opReader struct {
	data []byte
	pos  int
}

func (r *opReader) more() bool { return r.pos < len(r.data) }

func (r *opReader) next() int {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return int(b)
}

// stream is one decoded run: a geometry, an owner count, and the
// operation bytes that follow the header.
type stream struct {
	cfg   Config
	every int
	ops   opReader
}

func decodeStream(data []byte) stream {
	r := opReader{data: data}
	cfg := equivGeometries[r.next()%len(equivGeometries)]
	cfg.Owners = 1 + r.next()%4
	every := 1
	if r.next()%2 == 1 && cfg.Sets()%8 == 0 {
		every = 8
	}
	return stream{cfg: cfg, every: every, ops: r}
}

// addr draws an address whose tag comes from a small pool, so streams
// both hit and conflict; the low bits land inside the block.
func (s *stream) addr() Addr {
	set := s.ops.next() % s.cfg.Sets()
	tag := uint64(s.ops.next() % (2*s.cfg.Ways + 3))
	off := Addr(s.ops.next() % s.cfg.BlockSize)
	return blockAddr(s.cfg, set, tag) + off
}

func (s *stream) owner() int { return s.ops.next() % s.cfg.Owners }

func (s *stream) class() Class { return Class(s.ops.next() % 3) }

// target picks a legal way target for owner given the ways the other
// owners already hold.
func (s *stream) target(unallocated, current int) int {
	return s.ops.next() % (unallocated + current + 1)
}

// checker compares one model against its reference after an operation.
type checker struct {
	tb    testing.TB
	model string
	step  int
}

func (c *checker) eq(what string, got, want interface{}) {
	c.tb.Helper()
	if got != want {
		c.tb.Fatalf("%s op %d: %s = %v, reference %v", c.model, c.step, what, got, want)
	}
}

// statsView is what the tests can observe of a base cache.
type statsView interface {
	Stats(owner int) (int64, int64)
	Occupancy(owner int) int64
	WriteBacks() int64
	MissRatio(owner int) float64
	TotalStats() (int64, int64)
	SetOccupancy(set, owner int) int
}

func (c *checker) state(cfg Config, got statsView, want *refBase) {
	c.tb.Helper()
	for o := 0; o < cfg.Owners; o++ {
		ga, gm := got.Stats(o)
		wa, wm := want.Stats(o)
		if ga != wa || gm != wm {
			c.eq(fmt.Sprintf("Stats(%d)", o), [2]int64{ga, gm}, [2]int64{wa, wm})
		}
		if g, w := got.Occupancy(o), want.Occupancy(o); g != w {
			c.eq(fmt.Sprintf("Occupancy(%d)", o), g, w)
		}
		if g, w := got.MissRatio(o), want.MissRatio(o); g != w {
			c.eq(fmt.Sprintf("MissRatio(%d)", o), g, w)
		}
		for s := 0; s < cfg.Sets(); s++ {
			if g, w := got.SetOccupancy(s, o), want.SetOccupancy(s, o); g != w {
				c.eq(fmt.Sprintf("SetOccupancy(%d,%d)", s, o), g, w)
			}
		}
	}
	ga, gm := got.TotalStats()
	wa, wm := want.TotalStats()
	if ga != wa || gm != wm {
		c.eq("TotalStats", [2]int64{ga, gm}, [2]int64{wa, wm})
	}
	if g, w := got.WriteBacks(), want.WriteBacks(); g != w {
		c.eq("WriteBacks", g, w)
	}
}

// checkCacheEquivalence runs the stream through every model.
func checkCacheEquivalence(tb testing.TB, data []byte) {
	tb.Helper()
	equivLRU(tb, decodeStream(data))
	equivPartitioned(tb, decodeStream(data))
	equivGlobal(tb, decodeStream(data))
	equivShadow(tb, decodeStream(data))
	equivHierarchy(tb, decodeStream(data))
}

func equivLRU(tb testing.TB, s stream) {
	got, want := NewLRU(s.cfg), newRefLRU(s.cfg)
	c := &checker{tb: tb, model: fmt.Sprintf("LRU %+v", s.cfg)}
	for ; s.ops.more(); c.step++ {
		switch op := s.ops.next() % 10; {
		case op < 6:
			o, a := s.owner(), s.addr()
			c.eq("Access", got.Access(o, a), want.Access(o, a))
		case op < 8:
			o, a := s.owner(), s.addr()
			c.eq("Write", got.Write(o, a), want.Write(o, a))
		case op == 8:
			o := s.owner()
			gb, gw := got.Flush(o)
			wb, ww := want.Flush(o)
			c.eq("Flush", [2]int64{gb, gw}, [2]int64{wb, ww})
		default:
			resetStats(&s, got.baseCache, want.refBase)
		}
		c.state(s.cfg, got, want.refBase)
	}
}

// resetStats applies ResetStats or ResetOwnerStats to both sides.
func resetStats(s *stream, got *baseCache, want *refBase) {
	if o := s.ops.next() % (s.cfg.Owners + 1); o == s.cfg.Owners {
		got.ResetStats()
		want.ResetStats()
	} else {
		got.ResetOwnerStats(o)
		want.ResetOwnerStats(o)
	}
}

func equivPartitioned(tb testing.TB, s stream) {
	got, want := NewPartitioned(s.cfg), newRefPartitioned(s.cfg)
	c := &checker{tb: tb, model: fmt.Sprintf("Partitioned %+v", s.cfg)}
	for ; s.ops.more(); c.step++ {
		switch op := s.ops.next() % 12; {
		case op < 6:
			o, a := s.owner(), s.addr()
			c.eq("Access", got.Access(o, a), want.Access(o, a))
		case op < 8:
			o, a := s.owner(), s.addr()
			c.eq("Write", got.Write(o, a), want.Write(o, a))
		case op == 8:
			o := s.owner()
			gb, gw := got.Flush(o)
			wb, ww := want.Flush(o)
			c.eq("Flush", [2]int64{gb, gw}, [2]int64{wb, ww})
		case op == 9:
			o := s.owner()
			w := s.target(want.UnallocatedWays(), want.target[o])
			got.SetTarget(o, w)
			want.SetTarget(o, w)
		case op == 10:
			o, cl := s.owner(), s.class()
			got.SetClass(o, cl)
			want.SetClass(o, cl)
			c.eq("ClassOf", got.ClassOf(o), want.class[o])
		default:
			resetStats(&s, got.baseCache, want.refBase)
		}
		c.eq("UnallocatedWays", got.UnallocatedWays(), want.UnallocatedWays())
		c.state(s.cfg, got, want.refBase)
	}
}

func equivGlobal(tb testing.TB, s stream) {
	got, want := NewGlobal(s.cfg), newRefGlobal(s.cfg)
	c := &checker{tb: tb, model: fmt.Sprintf("Global %+v", s.cfg)}
	for ; s.ops.more(); c.step++ {
		switch op := s.ops.next() % 10; {
		case op < 7:
			o, a := s.owner(), s.addr()
			c.eq("Access", got.Access(o, a), want.Access(o, a))
		case op == 7:
			o := s.owner()
			gb, gw := got.Flush(o)
			wb, ww := want.Flush(o)
			c.eq("Flush", [2]int64{gb, gw}, [2]int64{wb, ww})
		case op == 8:
			o, w := s.owner(), s.ops.next()%(s.cfg.Ways+1)
			got.SetTargetWays(o, w)
			want.SetTargetWays(o, w)
			c.eq("TargetBlocks", got.TargetBlocks(o), want.targetBlocks[o])
		default:
			resetStats(&s, got.baseCache, want.refBase)
		}
		c.state(s.cfg, got, want.refBase)
	}
}

// equivShadow drives a main Partitioned cache and its ShadowTags with
// independent targets, as the stealing controller does (the shadow keeps
// the pre-stealing allocation while the main cache's targets move).
func equivShadow(tb testing.TB, s stream) {
	gotMain, wantMain := NewPartitioned(s.cfg), newRefPartitioned(s.cfg)
	got, want := NewShadowTags(s.cfg, s.every), newRefShadow(s.cfg, s.every)
	c := &checker{tb: tb, model: fmt.Sprintf("ShadowTags every=%d %+v", s.every, s.cfg)}
	shadowCfg := want.shadow.cfg
	for ; s.ops.more(); c.step++ {
		switch op := s.ops.next() % 16; {
		case op < 8:
			o, a := s.owner(), s.addr()
			var gr, wr Result
			if op%2 == 0 {
				gr, wr = gotMain.Access(o, a), wantMain.Access(o, a)
			} else {
				gr, wr = gotMain.Write(o, a), wantMain.Write(o, a)
			}
			c.eq("main Access", gr, wr)
			got.Observe(o, a, gr)
			want.Observe(o, a, wr)
		case op == 8:
			o := s.owner()
			w := s.target(want.shadow.UnallocatedWays(), want.shadow.target[o])
			got.SetTarget(o, w)
			want.shadow.SetTarget(o, w)
		case op == 9:
			o := s.owner()
			w := s.target(wantMain.UnallocatedWays(), wantMain.target[o])
			gotMain.SetTarget(o, w)
			wantMain.SetTarget(o, w)
		case op == 10:
			o, cl := s.owner(), s.class()
			got.SetClass(o, cl)
			want.shadow.SetClass(o, cl)
			gotMain.SetClass(o, cl)
			wantMain.SetClass(o, cl)
		case op == 11:
			o := s.owner()
			gb, gw := gotMain.Flush(o)
			wb, ww := wantMain.Flush(o)
			c.eq("main Flush", [2]int64{gb, gw}, [2]int64{wb, ww})
		case op == 12:
			got.Reset()
			want.Reset()
		case op == 13:
			o := s.owner()
			got.ResetOwner(o)
			want.ResetOwner(o)
		default:
			resetStats(&s, gotMain.baseCache, wantMain.refBase)
		}
		for o := 0; o < s.cfg.Owners; o++ {
			c.eq("MainMisses", got.MainMisses(o), want.mainMiss[o])
			c.eq("MainAccesses", got.MainAccesses(o), want.mainAcc[o])
			c.eq("ExcessMissRatio", got.ExcessMissRatio(o), refExcess(want, o))
		}
		c.eq("shadow UnallocatedWays", got.UnallocatedWays(), want.shadow.UnallocatedWays())
		c.state(shadowCfg, got.shadow, want.shadow.refBase)
		c.state(s.cfg, gotMain, wantMain.refBase)
	}
}

func refExcess(st *refShadow, owner int) float64 {
	_, sm := st.shadow.Stats(owner)
	if sm == 0 {
		return 0
	}
	return float64(st.mainMiss[owner]-sm) / float64(sm)
}

func equivHierarchy(tb testing.TB, s stream) {
	l1 := s.cfg
	l1.Owners = 1
	l2 := equivGeometries[2]
	l2.Owners = s.cfg.Owners
	cores := s.cfg.Owners
	got, want := NewHierarchy(cores, l1, l2), newRefHierarchy(cores, l1, l2)
	c := &checker{tb: tb, model: fmt.Sprintf("Hierarchy L1 %+v", l1)}
	for ; s.ops.more(); c.step++ {
		switch op := s.ops.next() % 12; {
		case op < 8:
			o, a := s.owner(), s.addr()
			c.eq("Access", got.Access(o, a), want.Access(o, a))
		case op == 8:
			o := s.owner()
			w := s.target(want.l2.UnallocatedWays(), want.l2.target[o])
			got.L2().SetTarget(o, w)
			want.l2.SetTarget(o, w)
		case op == 9:
			o, cl := s.owner(), s.class()
			got.L2().SetClass(o, cl)
			want.l2.SetClass(o, cl)
		case op == 10:
			o := s.owner()
			gb, gw := got.L2().Flush(o)
			wb, ww := want.l2.Flush(o)
			c.eq("L2 Flush", [2]int64{gb, gw}, [2]int64{wb, ww})
		default:
			got.ResetStats()
			want.ResetStats()
		}
		for core := 0; core < cores; core++ {
			gr, g1, g2 := got.Stats(core)
			wr, w1, w2 := want.Stats(core)
			c.eq("Stats", [3]int64{gr, g1, g2}, [3]int64{wr, w1, w2})
			c.state(l1, got.L1(core), want.l1[core].refBase)
		}
		c.state(l2, got.L2(), want.l2.refBase)
	}
}

// TestCacheEquivalenceSeeded runs seeded random streams through every
// model: each seed picks its geometry, owner count and sampling
// interval from the stream header.
func TestCacheEquivalenceSeeded(t *testing.T) {
	for seed := int64(0); seed < 48; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 3000)
		rng.Read(data)
		checkCacheEquivalence(t, data)
	}
}

// FuzzCacheEquivalence holds every model to its reference on arbitrary
// operation streams.
func FuzzCacheEquivalence(f *testing.F) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 400)
		rng.Read(data)
		data[0] = byte(seed)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		checkCacheEquivalence(t, data)
	})
}
