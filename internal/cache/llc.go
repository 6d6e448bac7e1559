// Package cache models the last-level cache with ARCC's modifications
// (§4.2.3): 64 B cachelines plus an upgraded-line tag bit; the two 64 B
// sub-lines of a 128 B upgraded line live in adjacent sets (their physical
// addresses are consecutive), are written back to memory *together* so all
// four check symbols per codeword stay consistent, and share a recency value
// so one sub-line's reuse keeps both resident.
package cache

import (
	"fmt"
	"math"
	"math/bits"
)

// Line address convention: a cacheline is identified by its 64 B line index
// (byte address / 64). The partner sub-line of an upgraded line at address a
// is a^1 — the adjacent line, which maps to the adjacent set.

// Eviction describes one line pushed out of the cache.
type Eviction struct {
	Addr     uint64
	Dirty    bool
	Upgraded bool
	// PairedWith is the partner address written back together with this
	// line when it belongs to an upgraded pair (valid when Upgraded).
	PairedWith uint64
}

// Policy selects how upgraded pairs are treated by replacement.
type Policy int

const (
	// SharedRecency is the paper's design: a sub-line's replacement
	// recency is the max of both sub-lines' recencies, and evicting one
	// sub-line evicts (and pairs the write-back of) the other.
	SharedRecency Policy = iota
	// IndependentLRU treats sub-lines as unrelated lines except that
	// eviction of a dirty sub-line still drags its partner out for the
	// paired write-back. Kept for the ablation benchmarks.
	IndependentLRU
)

// Per-way flag bits.
const (
	flagDirty uint8 = 1 << iota
	flagUpgraded
)

// LLC is a set-associative write-back, write-allocate cache.
//
// Ways are stored flat, set-major: way w of set s is slot s*assoc+w in every
// per-way array. A slot's key is its tag plus one, so zero marks an invalid
// way and a lookup is one compare per way. Invariants between public calls:
//
//   - an invalid slot is all zero: key, flags, link, and lastUse 0, which
//     is older than any valid way (the clock is at least 1 at every use),
//     and Reset is a clear of every array;
//   - an upgraded line's partner (addr^1) is resident and upgraded — pairs
//     fill together in InsertInto and leave together in evict — and link
//     holds the offset from the line's slot to its partner's, symmetrically;
//     every other slot's link is 0, pointing at itself;
//   - bit w of valid[s] is set exactly when way w of set s holds a line, so
//     a set with a free way fills its first free way, as a fill-first-free
//     cache does, without scanning recencies;
//   - upgraded[s] counts set s's upgraded ways, so a full set with none
//     takes the plain LRU scan;
//   - missed is addr+1 of the line the last Access missed, cleared by every
//     InsertInto: only an InsertInto can make a line resident, so an insert
//     of that line may skip its lookup (still counting the tag read).
type LLC struct {
	keys     []uint64 // tag+1; 0 = invalid
	lastUse  []int64
	flags    []uint8
	link     []int32  // partner slot minus own slot; 0 unless upgraded
	valid    []uint64 // per set: bit w set while way w is valid
	upgraded []int32  // per set: upgraded ways

	setMask  uint64
	tagShift uint // log2(numSets); addr = tag<<tagShift | setIndex
	assoc    int
	waysMask uint64 // the low assoc bits
	policy   Policy
	clock    int64
	tagReads int64
	missed   uint64

	hits, misses, writebacks int64
}

// New builds an LLC of sizeBytes with the given associativity and 64 B
// lines. Table 7.2's L2 is 1 MB, 16-way.
func New(sizeBytes, assoc int, policy Policy) *LLC {
	if sizeBytes <= 0 || assoc <= 0 {
		panic(fmt.Sprintf("cache: invalid size %d / assoc %d", sizeBytes, assoc))
	}
	if assoc > 64 {
		panic(fmt.Sprintf("cache: associativity %d exceeds the 64-bit free-way mask", assoc))
	}
	lines := sizeBytes / 64
	if lines%assoc != 0 {
		panic(fmt.Sprintf("cache: %d lines not divisible by associativity %d", lines, assoc))
	}
	if lines > math.MaxInt32 {
		panic(fmt.Sprintf("cache: %d lines exceed the 32-bit slot index", lines))
	}
	numSets := lines / assoc
	if numSets < 2 {
		panic("cache: need at least 2 sets for paired sub-lines")
	}
	if numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d must be a power of two", numSets))
	}
	c := &LLC{
		keys:     make([]uint64, lines),
		lastUse:  make([]int64, lines),
		flags:    make([]uint8, lines),
		link:     make([]int32, lines),
		valid:    make([]uint64, numSets),
		upgraded: make([]int32, numSets),
		setMask:  uint64(numSets - 1),
		tagShift: uint(bits.TrailingZeros64(uint64(numSets))),
		assoc:    assoc,
		waysMask: uint64(1)<<assoc - 1, // all ones at assoc 64
		policy:   policy,
	}
	return c
}

// Reset returns the cache to its post-New state — empty, counters zeroed —
// reusing the backing arrays. sim.Scratch resets rather than reallocates the
// LLCs between simulator runs.
func (c *LLC) Reset() {
	clear(c.keys)
	clear(c.lastUse)
	clear(c.flags)
	clear(c.link)
	clear(c.valid)
	clear(c.upgraded)
	c.clock, c.tagReads, c.missed = 0, 0, 0
	c.hits, c.misses, c.writebacks = 0, 0, 0
}

// locate returns addr's set, the set's first slot, and addr's key.
func (c *LLC) locate(addr uint64) (set uint64, base int, key uint64) {
	set = addr & c.setMask
	return set, int(set) * c.assoc, addr>>c.tagShift + 1
}

// lookup returns the slot holding key in the set starting at base, or -1.
func (c *LLC) lookup(base int, key uint64) int {
	for i, k := range c.keys[base : base+c.assoc] {
		if k == key {
			return base + i
		}
	}
	return -1
}

// Access looks up addr, updating recency and the dirty bit on a hit.
// It reports whether the access hit.
func (c *LLC) Access(addr uint64, write bool) bool {
	c.clock++
	c.tagReads++
	_, base, key := c.locate(addr)
	if i := c.lookup(base, key); i >= 0 {
		c.hits++
		c.lastUse[i] = c.clock
		if write {
			c.flags[i] |= flagDirty
		}
		return true
	}
	c.misses++
	c.missed = addr + 1
	return false
}

// InsertInto fills addr after a miss. For upgraded lines both sub-lines
// (addr&^1 and addr|1) are inserted — the memory returned the whole 128 B
// line. write marks the *requested* line dirty. The evictions (at most
// three: a victim plus an upgraded victim's partner per sub-line inserted)
// are appended to evs and the extended slice is returned; passing a scratch
// slice with spare capacity makes a steady-state miss path allocation-free.
func (c *LLC) InsertInto(addr uint64, upgraded, write bool, evs []Eviction) []Eviction {
	c.clock++
	absent := c.missed == addr+1 // the preceding Access missed addr
	c.missed = 0
	if !upgraded {
		_, evs = c.insertOne(addr, false, write, absent, evs)
		return evs
	}
	lo, hi := addr&^uint64(1), addr|1
	l, evs := c.insertOne(lo, true, write && addr == lo, absent && addr == lo, evs)
	h, evs := c.insertOne(hi, true, write && addr == hi, absent && addr == hi, evs)
	// Filling hi can evict only lines of hi's set and their partners in
	// lo's set — never lo itself — so l still holds lo.
	c.link[l], c.link[h] = int32(h-l), int32(l-h)
	return evs
}

// insertOne makes addr resident (filling it or, when it already is,
// refreshing it in place) and returns its slot. absent skips the lookup for
// a line known not to be resident; the tag read is counted either way.
func (c *LLC) insertOne(addr uint64, upgraded, dirty, absent bool, evs []Eviction) (int, []Eviction) {
	set, base, key := c.locate(addr)
	c.tagReads++
	var f uint8
	if dirty {
		f = flagDirty
	}
	if upgraded {
		f |= flagUpgraded
	}
	if !absent {
		if i := c.lookup(base, key); i >= 0 {
			// Already resident (e.g. partner was brought in earlier).
			c.lastUse[i] = c.clock
			if f&^c.flags[i]&flagUpgraded != 0 {
				c.upgraded[set]++
			}
			c.flags[i] |= f
			return i, evs
		}
	}
	v := c.pickVictim(set, base)
	if c.keys[v] != 0 {
		evs = c.evict(set, v, evs)
	}
	c.keys[v], c.lastUse[v], c.flags[v] = key, c.clock, f
	c.valid[set] |= 1 << (v - base)
	if upgraded {
		c.upgraded[set]++
	}
	return v, evs
}

// pickVictim selects the victim way of the set starting at base. A set with
// a free way yields its first free way, as the LRU scans below would (an
// invalid way's lastUse of 0 is older than any valid way's), without a scan
// and without consulting any partner. A full set yields its LRU way. Under
// SharedRecency, a sub-line of an upgraded pair is judged by the most recent
// use of either sub-line, which costs a second tag access per upgraded way
// (the paper doubles replacement time and observes no slowdown).
func (c *LLC) pickVictim(set uint64, base int) int {
	if free := ^c.valid[set] & c.waysMask; free != 0 {
		return base + bits.TrailingZeros64(free)
	}
	use := c.lastUse[base : base+c.assoc]
	best := 0
	if c.policy != SharedRecency || c.upgraded[set] == 0 {
		oldest := use[0]
		for i, u := range use {
			if u < oldest {
				oldest, best = u, i
			}
		}
		return base + best
	}
	// A relaxed way links to itself, so every way's recency is
	// max(own, linked) without a branch on the upgraded bit.
	link := c.link[base : base+c.assoc]
	bestRec := int64(math.MaxInt64)
	for i, own := range use {
		if rec := max(own, c.lastUse[base+i+int(link[i])]); rec < bestRec {
			bestRec, best = rec, i
		}
	}
	c.tagReads += int64(c.upgraded[set])
	return base + best
}

// evict removes slot v of set and, for an upgraded sub-line, also its
// partner (via the link) so both halves write back together. The evictions
// are appended to evs.
func (c *LLC) evict(set uint64, v int, evs []Eviction) []Eviction {
	addr := (c.keys[v]-1)<<c.tagShift | set
	dirty := c.flags[v]&flagDirty != 0
	upgraded := c.flags[v]&flagUpgraded != 0
	p := v + int(c.link[v])
	c.invalidate(v)
	c.valid[set] &^= 1 << (v - int(set)*c.assoc)
	if !upgraded {
		if dirty {
			c.writebacks++
		}
		return append(evs, Eviction{Addr: addr, Dirty: dirty})
	}
	c.upgraded[set]--
	pDirty := c.flags[p]&flagDirty != 0
	c.invalidate(p)
	c.valid[set^1] &^= 1 << (p - int(set^1)*c.assoc)
	c.upgraded[set^1]--
	// Either sub-line dirty forces the pair to write back together.
	dirty = dirty || pDirty
	if dirty {
		c.writebacks += 2
	}
	return append(evs,
		Eviction{Addr: addr, Dirty: dirty, Upgraded: true, PairedWith: addr ^ 1},
		Eviction{Addr: addr ^ 1, Dirty: dirty, Upgraded: true, PairedWith: addr})
}

// invalidate returns slot i to the invalid state.
func (c *LLC) invalidate(i int) {
	c.keys[i], c.lastUse[i], c.flags[i], c.link[i] = 0, 0, 0, 0
}

// Stats returns hit/miss/writeback counters and total tag reads (the extra
// tag read per replacement is the overhead §4.2.3 discusses).
func (c *LLC) Stats() (hits, misses, writebacks, tagReads int64) {
	return c.hits, c.misses, c.writebacks, c.tagReads
}

// HitRate returns hits / (hits + misses), or 0 before any access.
func (c *LLC) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}
