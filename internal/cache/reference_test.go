package cache

import "fmt"

// This file keeps the stamp-based cache model as a test-only reference:
// every line carries a global LRU stamp (larger = more recent) and every
// victim rule is a full scan for the smallest stamp among the valid lines
// its predicate accepts. It is deliberately the plainest possible form of
// the policies in cache.go and partition.go — no free-way hint, no
// recency order, no owner masks — so the differential tests in
// equivalence_test.go can hold the production layout to it access by
// access.

type refLine struct {
	tag   uint64
	stamp uint64
	owner int
	valid bool
	dirty bool
}

type refBase struct {
	cfg        Config
	sets       [][]refLine
	clock      uint64
	ownerAcc   []int64
	ownerMiss  []int64
	occupancy  [][]int
	globalOcc  []int64
	writeBacks int64
}

func newRefBase(cfg Config) *refBase {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	b := &refBase{
		cfg:       cfg,
		sets:      make([][]refLine, cfg.Sets()),
		ownerAcc:  make([]int64, cfg.Owners),
		ownerMiss: make([]int64, cfg.Owners),
		occupancy: make([][]int, cfg.Sets()),
		globalOcc: make([]int64, cfg.Owners),
	}
	for s := range b.sets {
		b.sets[s] = make([]refLine, cfg.Ways)
		b.occupancy[s] = make([]int, cfg.Owners)
	}
	return b
}

// index is the arithmetic set/tag split: block number modulo and divided
// by the set count.
func (b *refBase) index(addr Addr) (set int, tag uint64) {
	blk := uint64(addr) / uint64(b.cfg.BlockSize)
	sets := uint64(len(b.sets))
	return int(blk % sets), blk / sets
}

func (b *refBase) lookup(set int, tag uint64) int {
	for w, ln := range b.sets[set] {
		if ln.valid && ln.tag == tag {
			return w
		}
	}
	return -1
}

func (b *refBase) touch(set, way int) {
	b.clock++
	b.sets[set][way].stamp = b.clock
}

func (b *refBase) freeWay(set int) int {
	for w, ln := range b.sets[set] {
		if !ln.valid {
			return w
		}
	}
	return -1
}

func (b *refBase) lruWay(set int, keep func(refLine) bool) int {
	best := -1
	var bestStamp uint64
	for w, ln := range b.sets[set] {
		if !ln.valid || (keep != nil && !keep(ln)) {
			continue
		}
		if best == -1 || ln.stamp < bestStamp {
			best, bestStamp = w, ln.stamp
		}
	}
	return best
}

func (b *refBase) install(set, way int, tag uint64, owner int) Result {
	ln := &b.sets[set][way]
	r := Result{Set: set, VictimOwner: -1}
	if ln.valid {
		r.VictimOwner = ln.owner
		r.Evicted = true
		r.WriteBack = ln.dirty
		if ln.dirty {
			b.writeBacks++
		}
		b.occupancy[set][ln.owner]--
		b.globalOcc[ln.owner]--
	}
	*ln = refLine{tag: tag, owner: owner, valid: true}
	b.occupancy[set][owner]++
	b.globalOcc[owner]++
	b.touch(set, way)
	return r
}

func (b *refBase) record(owner int, miss bool) {
	b.ownerAcc[owner]++
	if miss {
		b.ownerMiss[owner]++
	}
}

func (b *refBase) Stats(owner int) (accesses, misses int64) {
	return b.ownerAcc[owner], b.ownerMiss[owner]
}

func (b *refBase) TotalStats() (accesses, misses int64) {
	for o := range b.ownerAcc {
		accesses += b.ownerAcc[o]
		misses += b.ownerMiss[o]
	}
	return accesses, misses
}

func (b *refBase) ResetOwnerStats(owner int) {
	b.ownerAcc[owner] = 0
	b.ownerMiss[owner] = 0
}

func (b *refBase) ResetStats() {
	for o := range b.ownerAcc {
		b.ResetOwnerStats(o)
	}
}

func (b *refBase) Flush(owner int) (blocks, writeBacks int64) {
	for s := range b.sets {
		for w := range b.sets[s] {
			ln := &b.sets[s][w]
			if !ln.valid || ln.owner != owner {
				continue
			}
			blocks++
			if ln.dirty {
				writeBacks++
				b.writeBacks++
			}
			ln.valid = false
			ln.dirty = false
			b.occupancy[s][owner]--
		}
	}
	b.globalOcc[owner] -= blocks
	return blocks, writeBacks
}

func (b *refBase) WriteBacks() int64               { return b.writeBacks }
func (b *refBase) Occupancy(owner int) int64       { return b.globalOcc[owner] }
func (b *refBase) SetOccupancy(set, owner int) int { return b.occupancy[set][owner] }
func (b *refBase) MissRatio(owner int) float64 {
	if b.ownerAcc[owner] == 0 {
		return 0
	}
	return float64(b.ownerMiss[owner]) / float64(b.ownerAcc[owner])
}
func (b *refBase) markDirty(set, way int, dirty bool) {
	b.sets[set][way].dirty = b.sets[set][way].dirty || dirty
}

// refLRU is the reference plain LRU cache.
type refLRU struct{ *refBase }

func newRefLRU(cfg Config) *refLRU { return &refLRU{newRefBase(cfg)} }

func (c *refLRU) Access(owner int, addr Addr) Result { return c.access(owner, addr, false) }
func (c *refLRU) Write(owner int, addr Addr) Result  { return c.access(owner, addr, true) }

func (c *refLRU) access(owner int, addr Addr, write bool) Result {
	set, tag := c.index(addr)
	if w := c.lookup(set, tag); w >= 0 {
		c.touch(set, w)
		c.markDirty(set, w, write)
		c.record(owner, false)
		return Result{Hit: true, Set: set, VictimOwner: -1}
	}
	c.record(owner, true)
	w := c.freeWay(set)
	if w < 0 {
		w = c.lruWay(set, nil)
	}
	r := c.install(set, w, tag, owner)
	c.markDirty(set, w, write)
	return r
}

// refPartitioned is the reference per-set way-partitioned cache: the
// victim rules of Partitioned.victim, each an lruWay predicate.
type refPartitioned struct {
	*refBase
	target []int
	class  []Class
}

func newRefPartitioned(cfg Config) *refPartitioned {
	return &refPartitioned{
		refBase: newRefBase(cfg),
		target:  make([]int, cfg.Owners),
		class:   make([]Class, cfg.Owners),
	}
}

func (c *refPartitioned) SetTarget(owner, ways int) {
	if ways < 0 || ways > c.cfg.Ways {
		panic(fmt.Sprintf("cache: target %d out of range [0,%d]", ways, c.cfg.Ways))
	}
	c.target[owner] = ways
	if c.cfg.Ways-c.UnallocatedWays() > c.cfg.Ways {
		panic("cache: target sum exceeds associativity")
	}
}

func (c *refPartitioned) UnallocatedWays() int {
	u := c.cfg.Ways
	for _, t := range c.target {
		u -= t
	}
	return u
}

func (c *refPartitioned) SetClass(owner int, cl Class) { c.class[owner] = cl }

func (c *refPartitioned) Access(owner int, addr Addr) Result { return c.access(owner, addr, false) }
func (c *refPartitioned) Write(owner int, addr Addr) Result  { return c.access(owner, addr, true) }

func (c *refPartitioned) access(owner int, addr Addr, write bool) Result {
	set, tag := c.index(addr)
	return c.accessSetTag(owner, set, tag, write)
}

func (c *refPartitioned) accessSetTag(owner, set int, tag uint64, write bool) Result {
	if w := c.lookup(set, tag); w >= 0 {
		c.touch(set, w)
		c.markDirty(set, w, write)
		c.record(owner, false)
		return Result{Hit: true, Set: set, VictimOwner: -1}
	}
	c.record(owner, true)
	w := c.victim(set, owner)
	r := c.install(set, w, tag, owner)
	c.markDirty(set, w, write)
	return r
}

func (c *refPartitioned) victim(set, owner int) int {
	occ := c.occupancy[set]
	over := func(ln refLine) bool { return occ[ln.owner] > c.target[ln.owner] }
	overReserved := func(ln refLine) bool { return over(ln) && c.class[ln.owner] == ClassReserved }
	opportunistic := func(ln refLine) bool { return c.class[ln.owner] == ClassOpportunistic }
	under := occ[owner] < c.target[owner]
	oppo := c.class[owner] == ClassOpportunistic
	if under || oppo {
		if w := c.freeWay(set); w >= 0 {
			return w
		}
	}
	if under {
		if w := c.lruWay(set, overReserved); w >= 0 {
			return w
		}
		if w := c.lruWay(set, func(ln refLine) bool { return ln.owner != owner && opportunistic(ln) }); w >= 0 {
			return w
		}
		if w := c.lruWay(set, over); w >= 0 {
			return w
		}
		return c.lruWay(set, nil)
	}
	if oppo {
		if w := c.lruWay(set, overReserved); w >= 0 {
			return w
		}
	}
	if w := c.lruWay(set, func(ln refLine) bool { return ln.owner == owner }); w >= 0 {
		return w
	}
	if w := c.lruWay(set, opportunistic); w >= 0 {
		return w
	}
	if w := c.lruWay(set, over); w >= 0 {
		return w
	}
	if w := c.freeWay(set); w >= 0 {
		return w
	}
	return c.lruWay(set, nil)
}

// refGlobal is the reference global-counter partitioned cache.
type refGlobal struct {
	*refBase
	targetBlocks []int64
}

func newRefGlobal(cfg Config) *refGlobal {
	return &refGlobal{refBase: newRefBase(cfg), targetBlocks: make([]int64, cfg.Owners)}
}

func (c *refGlobal) SetTargetWays(owner, ways int) {
	c.targetBlocks[owner] = int64(ways) * int64(c.cfg.Sets())
}

func (c *refGlobal) Access(owner int, addr Addr) Result {
	set, tag := c.index(addr)
	if w := c.lookup(set, tag); w >= 0 {
		c.touch(set, w)
		c.record(owner, false)
		return Result{Hit: true, Set: set, VictimOwner: -1}
	}
	c.record(owner, true)
	w := c.freeWay(set)
	if w < 0 {
		w = c.lruWay(set, func(ln refLine) bool { return c.globalOcc[ln.owner] > c.targetBlocks[ln.owner] })
	}
	if w < 0 {
		w = c.lruWay(set, func(ln refLine) bool { return ln.owner == owner })
	}
	if w < 0 {
		w = c.lruWay(set, nil)
	}
	return c.install(set, w, tag, owner)
}

// refShadow is the reference duplicate tag array: a refPartitioned
// covering every Nth main set, addressed by (main set / every, main tag).
type refShadow struct {
	shadow   *refPartitioned
	every    int
	mainMiss []int64
	mainAcc  []int64
}

func newRefShadow(cfg Config, every int) *refShadow {
	shadowCfg := cfg
	shadowCfg.SizeBytes = cfg.SizeBytes / every
	return &refShadow{
		shadow:   newRefPartitioned(shadowCfg),
		every:    every,
		mainMiss: make([]int64, cfg.Owners),
		mainAcc:  make([]int64, cfg.Owners),
	}
}

func (st *refShadow) Observe(owner int, addr Addr, main Result) {
	if main.Set%st.every != 0 {
		return
	}
	st.mainAcc[owner]++
	if !main.Hit {
		st.mainMiss[owner]++
	}
	mainSets := uint64(len(st.shadow.sets) * st.every)
	tag := uint64(addr) / uint64(st.shadow.cfg.BlockSize) / mainSets
	st.shadow.accessSetTag(owner, main.Set/st.every, tag, false)
}

func (st *refShadow) ResetOwner(owner int) {
	st.mainMiss[owner] = 0
	st.mainAcc[owner] = 0
	st.shadow.ResetOwnerStats(owner)
}

func (st *refShadow) Reset() {
	fresh := newRefPartitioned(st.shadow.cfg)
	copy(fresh.target, st.shadow.target)
	copy(fresh.class, st.shadow.class)
	st.shadow = fresh
	for o := range st.mainMiss {
		st.mainMiss[o] = 0
		st.mainAcc[o] = 0
	}
}

// refHierarchy is the reference two-level hierarchy.
type refHierarchy struct {
	l1 []*refLRU
	l2 *refPartitioned
}

func newRefHierarchy(cores int, l1cfg, l2cfg Config) *refHierarchy {
	h := &refHierarchy{l2: newRefPartitioned(l2cfg)}
	for i := 0; i < cores; i++ {
		cfg := l1cfg
		cfg.Owners = 1
		h.l1 = append(h.l1, newRefLRU(cfg))
	}
	return h
}

func (h *refHierarchy) Access(core int, addr Addr) AccessResult {
	if r := h.l1[core].Access(0, addr); r.Hit {
		return AccessResult{L1Hit: true}
	}
	return AccessResult{L2: h.l2.Access(core, addr)}
}

func (h *refHierarchy) Stats(core int) (refs, l1Misses, l2Misses int64) {
	refs, l1Misses = h.l1[core].Stats(0)
	_, l2Misses = h.l2.Stats(core)
	return refs, l1Misses, l2Misses
}

func (h *refHierarchy) ResetStats() {
	for _, c := range h.l1 {
		c.ResetStats()
	}
	h.l2.ResetStats()
}
