// Package cache implements the shared-L2 cache models from the paper: a
// set-associative cache with true LRU, the per-set way-partitioning scheme
// with QoS-aware victim selection (paper §4.1), the global modified-LRU
// partitioning scheme of Suh et al. (the alternative the paper rejects for
// its run-to-run variability), and the duplicate (shadow) tag arrays with
// set sampling that support resource stealing (paper §4.3).
//
// All caches in this package are tag-only models: they track which block
// addresses are resident and who owns them, not data contents. That is all
// the QoS framework observes. Owners are small integers (core IDs).
package cache

import (
	"fmt"
	"math/bits"
)

// Addr is a byte address in the simulated physical address space.
type Addr uint64

// Class describes the QoS standing of the job running on a core, as far
// as the cache victim-selection hardware cares: blocks belonging to
// reserved-mode jobs (Strict or Elastic) are prioritized for reclamation
// when their core is over target, because the partitioning hardware wants
// those cores to converge to their targets quickly (paper §4.1).
type Class uint8

const (
	// ClassNone marks a core with no job (its blocks are fair game).
	ClassNone Class = iota
	// ClassReserved marks a core running a Strict or Elastic(X) job.
	ClassReserved
	// ClassOpportunistic marks a core running Opportunistic jobs.
	ClassOpportunistic
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case ClassNone:
		return "none"
	case ClassReserved:
		return "reserved"
	case ClassOpportunistic:
		return "opportunistic"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Config describes cache geometry.
type Config struct {
	SizeBytes int   // total capacity in bytes
	Ways      int   // associativity
	BlockSize int   // line size in bytes
	Owners    int   // number of cores that may own blocks
	HitCycles int64 // access latency, cycles (bookkeeping only)
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int { return c.SizeBytes / (c.Ways * c.BlockSize) }

// Validate checks the geometry for internal consistency.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.BlockSize <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	if c.Owners <= 0 {
		return fmt.Errorf("cache: need at least one owner")
	}
	// Victim rules select owners by a 64-bit mask, and each set keeps its
	// recency order one byte per way.
	if c.Owners > 64 {
		return fmt.Errorf("cache: %d owners exceed the limit of 64", c.Owners)
	}
	if c.Ways > 256 {
		return fmt.Errorf("cache: associativity %d exceeds the limit of 256", c.Ways)
	}
	if c.BlockSize&(c.BlockSize-1) != 0 {
		return fmt.Errorf("cache: block size %d is not a power of two", c.BlockSize)
	}
	if c.SizeBytes%(c.Ways*c.BlockSize) != 0 {
		return fmt.Errorf("cache: size %d not divisible by ways*block", c.SizeBytes)
	}
	sets := c.Sets()
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d is not a power of two", sets)
	}
	// A tag must drop at least one address bit, or the all-ones address
	// would collide with the empty-way sentinel.
	if sets*c.BlockSize < 2 {
		return fmt.Errorf("cache: geometry %+v maps whole addresses to tags", c)
	}
	return nil
}

// PaperL2 returns the paper's shared L2 geometry: 2 MB, 16-way, 64 B
// blocks (2048 sets), 10-cycle access, four owning cores.
func PaperL2() Config {
	return Config{SizeBytes: 2 << 20, Ways: 16, BlockSize: 64, Owners: 4, HitCycles: 10}
}

// PaperL1 returns the paper's private L1 geometry: 32 KB, 4-way, 64 B
// blocks, 2-cycle access, single owner.
func PaperL1() Config {
	return Config{SizeBytes: 32 << 10, Ways: 4, BlockSize: 64, Owners: 1, HitCycles: 2}
}

// Result reports the outcome of one access.
type Result struct {
	Hit         bool
	Set         int  // set index the access mapped to
	VictimOwner int  // owner whose block was evicted on a miss; -1 if none
	Evicted     bool // whether a valid block was displaced
	// WriteBack reports that the displaced block was dirty: a write-back
	// transfer to the next level (the paper's caches are write-back).
	WriteBack bool
}

// Interface is the behaviour common to all cache models in this package.
type Interface interface {
	// Access performs a (read or write — the tag model does not care)
	// access by owner to addr and returns the outcome.
	Access(owner int, addr Addr) Result
	// Stats returns cumulative accesses and misses for an owner.
	Stats(owner int) (accesses, misses int64)
	// ResetStats zeroes the per-owner counters without touching contents.
	ResetStats()
}

// invalidTag marks an empty way. Tags are addresses shifted right by at
// least one bit (Validate guarantees tagShift >= 1), so no resident
// block's tag can equal it and lookup needs no separate valid bit.
const invalidTag = ^uint64(0)

// allOwners is the owner mask that admits every owner.
const allOwners = ^uint64(0)

// baseCache holds the storage shared by every cache model. Per-way state
// lives in flat arrays indexed set*ways+way, so the lookup scan — the
// hottest loop in the trace engine — is a compare over one set's
// contiguous tags.
//
// LRU state is a per-set recency order rather than per-line stamps:
// order[set*ways : (set+1)*ways] lists the set's ways from least to most
// recently used. touch and install move a way to the MRU end, so among
// the valid ways the order is exactly the order of the stamps a global
// clock would have handed out; an invalidated way keeps its place and is
// skipped by every walk until install moves it to the MRU end again.
type baseCache struct {
	cfg        Config
	tags       []uint64 // tags[set*ways+way]; invalidTag when empty
	owner      []uint8  // owner[set*ways+way], meaningful when valid
	dirty      []bool   // dirty[set*ways+way]
	order      []uint8  // per set, ways listed LRU→MRU
	setShift   uint
	tagShift   uint // precomputed setShift + log2(sets); see index
	setMask    uint64
	ownerAcc   []int64
	ownerMiss  []int64
	totalAcc   int64
	totalMiss  int64
	occupancy  []int16 // occupancy[set*owners+owner]: valid blocks owned per set
	globalOcc  []int64 // blocks owned per owner across all sets
	freeInSet  []int16 // invalid lines per set
	freeHint   []int16 // per set: every way below the hint is valid
	writeBacks int64   // dirty evictions (write-back transfers)
}

func newBase(cfg Config) *baseCache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Sets()
	b := &baseCache{
		cfg:       cfg,
		tags:      make([]uint64, sets*cfg.Ways),
		owner:     make([]uint8, sets*cfg.Ways),
		dirty:     make([]bool, sets*cfg.Ways),
		order:     make([]uint8, sets*cfg.Ways),
		setShift:  uint(bits.TrailingZeros(uint(cfg.BlockSize))),
		tagShift:  uint(bits.TrailingZeros(uint(cfg.BlockSize))) + uint(bits.TrailingZeros(uint(sets))),
		setMask:   uint64(sets - 1),
		ownerAcc:  make([]int64, cfg.Owners),
		ownerMiss: make([]int64, cfg.Owners),
		occupancy: make([]int16, sets*cfg.Owners),
		globalOcc: make([]int64, cfg.Owners),
		freeInSet: make([]int16, sets),
		freeHint:  make([]int16, sets),
	}
	b.clear()
	return b
}

// clear empties the cache and zeroes every counter, in place.
func (b *baseCache) clear() {
	for i := range b.tags {
		b.tags[i] = invalidTag
		b.owner[i] = 0
		b.dirty[i] = false
		b.order[i] = uint8(i % b.cfg.Ways)
	}
	for s := range b.freeInSet {
		b.freeInSet[s] = int16(b.cfg.Ways)
		b.freeHint[s] = 0
	}
	clear(b.occupancy)
	clear(b.globalOcc)
	b.ResetStats()
	b.writeBacks = 0
}

// index splits an address into set index and tag.
func (b *baseCache) index(addr Addr) (set int, tag uint64) {
	blk := uint64(addr) >> b.setShift
	return int(blk & b.setMask), uint64(addr) >> b.tagShift
}

// lookup finds the way holding (set, tag), or -1.
func (b *baseCache) lookup(set int, tag uint64) int {
	base := set * b.cfg.Ways
	for w, t := range b.tags[base : base+b.cfg.Ways] {
		if t == tag {
			return w
		}
	}
	return -1
}

// touch makes way the set's most recently used. It walks from the MRU
// end, shifting each more recent way down one place, until it reaches
// way's old position: the cost is way's distance from the MRU end, and
// a repeated hit on the MRU way costs one compare.
func (b *baseCache) touch(set, way int) {
	ord := b.order[set*b.cfg.Ways : (set+1)*b.cfg.Ways]
	w := uint8(way)
	p := len(ord) - 1
	carry := ord[p]
	ord[p] = w
	for carry != w {
		p--
		carry, ord[p] = ord[p], carry
	}
}

// freeWay returns the lowest-index invalid way in the set, or -1. The
// freeInSet counter answers the common full-set case in O(1); otherwise
// the scan starts at the set's free hint, which is a proven lower bound
// on the first invalid way (everything below it is valid), so filling a
// set is amortized O(1) instead of O(ways²).
func (b *baseCache) freeWay(set int) int {
	if b.freeInSet[set] == 0 {
		return -1
	}
	base := set * b.cfg.Ways
	for w := int(b.freeHint[set]); w < b.cfg.Ways; w++ {
		if b.tags[base+w] == invalidTag {
			b.freeHint[set] = int16(w)
			return w
		}
	}
	return -1
}

// lruAmong returns the least-recently-used valid way whose owner is in
// the owners bit mask, or -1 when no way qualifies. It walks the set's
// recency order from the LRU end and stops at the first match, so every
// victim rule is one mask plus a walk that usually ends within a few
// ways; an empty mask costs nothing.
func (b *baseCache) lruAmong(set int, owners uint64) int {
	if owners == 0 {
		return -1
	}
	base := set * b.cfg.Ways
	for _, w := range b.order[base : base+b.cfg.Ways] {
		i := base + int(w)
		if b.tags[i] != invalidTag && owners>>b.owner[i]&1 != 0 {
			return int(w)
		}
	}
	return -1
}

// install places (tag, owner) into way, updating occupancy bookkeeping,
// and returns the previous owner (or -1), whether a valid block was
// displaced, and whether the displaced block was dirty (write-back).
func (b *baseCache) install(set, way int, tag uint64, owner int) (victimOwner int, evicted, writeBack bool) {
	i := set*b.cfg.Ways + way
	victimOwner = -1
	if b.tags[i] != invalidTag {
		old := int(b.owner[i])
		victimOwner = old
		evicted = true
		writeBack = b.dirty[i]
		if writeBack {
			b.writeBacks++
		}
		b.occupancy[set*b.cfg.Owners+old]--
		b.globalOcc[old]--
	} else {
		b.freeInSet[set]--
		if int(b.freeHint[set]) == way {
			b.freeHint[set]++
		}
	}
	b.tags[i] = tag
	b.owner[i] = uint8(owner)
	b.dirty[i] = false
	b.occupancy[set*b.cfg.Owners+owner]++
	b.globalOcc[owner]++
	b.touch(set, way)
	return victimOwner, evicted, writeBack
}

// markDirty sets a resident way's dirty bit (a write hit or a write
// fill under write-allocate).
func (b *baseCache) markDirty(set, way int) { b.dirty[set*b.cfg.Ways+way] = true }

// WriteBacks returns the lifetime count of dirty evictions.
func (b *baseCache) WriteBacks() int64 { return b.writeBacks }

// record updates per-owner counters.
func (b *baseCache) record(owner int, miss bool) {
	b.ownerAcc[owner]++
	b.totalAcc++
	if miss {
		b.ownerMiss[owner]++
		b.totalMiss++
	}
}

// Stats returns cumulative accesses and misses for owner.
func (b *baseCache) Stats(owner int) (accesses, misses int64) {
	return b.ownerAcc[owner], b.ownerMiss[owner]
}

// TotalStats returns cumulative accesses and misses across all owners.
func (b *baseCache) TotalStats() (accesses, misses int64) {
	return b.totalAcc, b.totalMiss
}

// ResetOwnerStats zeroes one owner's access/miss counters; contents and
// the aggregate counters of other owners are untouched.
func (b *baseCache) ResetOwnerStats(owner int) {
	b.totalAcc -= b.ownerAcc[owner]
	b.totalMiss -= b.ownerMiss[owner]
	b.ownerAcc[owner] = 0
	b.ownerMiss[owner] = 0
}

// Flush invalidates every block owned by owner, returning the number of
// blocks dropped and the write-backs their dirty subset generated. The
// OS issues this when a job leaves a core (context-switch realism) or
// completes.
func (b *baseCache) Flush(owner int) (blocks, writeBacks int64) {
	o := uint8(owner)
	for set := range b.freeInSet {
		base := set * b.cfg.Ways
		for w, t := range b.tags[base : base+b.cfg.Ways] {
			i := base + w
			if t == invalidTag || b.owner[i] != o {
				continue
			}
			blocks++
			if b.dirty[i] {
				writeBacks++
				b.writeBacks++
			}
			b.tags[i] = invalidTag
			b.dirty[i] = false
			b.occupancy[set*b.cfg.Owners+owner]--
			b.freeInSet[set]++
			if int16(w) < b.freeHint[set] {
				b.freeHint[set] = int16(w)
			}
		}
	}
	b.globalOcc[owner] -= blocks
	return blocks, writeBacks
}

// ResetStats zeroes all access/miss counters; contents are untouched.
func (b *baseCache) ResetStats() {
	for i := range b.ownerAcc {
		b.ownerAcc[i] = 0
		b.ownerMiss[i] = 0
	}
	b.totalAcc = 0
	b.totalMiss = 0
}

// MissRatio returns misses/accesses for owner (0 when idle).
func (b *baseCache) MissRatio(owner int) float64 {
	if b.ownerAcc[owner] == 0 {
		return 0
	}
	return float64(b.ownerMiss[owner]) / float64(b.ownerAcc[owner])
}

// Occupancy returns the number of valid blocks owned by owner.
func (b *baseCache) Occupancy(owner int) int64 { return b.globalOcc[owner] }

// SetOccupancy returns owner's valid-block count within one set; it is
// exported for tests and the convergence diagnostics.
func (b *baseCache) SetOccupancy(set, owner int) int {
	return int(b.occupancy[set*b.cfg.Owners+owner])
}

// Sets returns the number of sets.
func (b *baseCache) Sets() int { return len(b.freeInSet) }

// Config returns the cache geometry.
func (b *baseCache) Config() Config { return b.cfg }

// LRU is a plain (unpartitioned) set-associative LRU cache. It models the
// private L1 caches and serves as the unmanaged-L2 reference point.
type LRU struct {
	*baseCache
}

// NewLRU builds a plain LRU cache with the given geometry.
func NewLRU(cfg Config) *LRU {
	return &LRU{newBase(cfg)}
}

// Access performs one read access.
func (c *LRU) Access(owner int, addr Addr) Result {
	return c.access(owner, addr, false)
}

// Write performs one write access (write-allocate, write-back).
func (c *LRU) Write(owner int, addr Addr) Result {
	return c.access(owner, addr, true)
}

func (c *LRU) access(owner int, addr Addr, write bool) Result {
	set, tag := c.index(addr)
	if w := c.lookup(set, tag); w >= 0 {
		c.touch(set, w)
		if write {
			c.markDirty(set, w)
		}
		c.record(owner, false)
		return Result{Hit: true, Set: set, VictimOwner: -1}
	}
	c.record(owner, true)
	w := c.freeWay(set)
	if w < 0 {
		w = c.lruAmong(set, allOwners)
	}
	vo, ev, wb := c.install(set, w, tag, owner)
	if write {
		c.markDirty(set, w)
	}
	return Result{Set: set, VictimOwner: vo, Evicted: ev, WriteBack: wb}
}

var _ Interface = (*LRU)(nil)
