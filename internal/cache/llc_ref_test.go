package cache

// refLLC is the LLC as it was before the flat per-way layout: an array of
// way structs per set, a linear partner-set scan for every shared-recency
// comparison and paired eviction, and a full lookup in every insert. It is
// kept as the executable specification the flat LLC is checked against
// (TestLLCMatchesReference, FuzzLLCMatchesReference): same hits, same
// eviction lists in the same order, same four Stats counters.

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

type refWay struct {
	tag      uint64
	valid    bool
	dirty    bool
	upgraded bool
	lastUse  int64
}

type refLLC struct {
	sets     [][]refWay
	numSets  uint64
	tagShift uint // log2(numSets); addr = tag<<tagShift | setIndex
	assoc    int
	policy   Policy
	clock    int64
	tagReads int64

	hits, misses, writebacks int64
}

func newRefLLC(sizeBytes, assoc int, policy Policy) *refLLC {
	if sizeBytes <= 0 || assoc <= 0 {
		panic(fmt.Sprintf("cache: invalid size %d / assoc %d", sizeBytes, assoc))
	}
	lines := sizeBytes / 64
	if lines%assoc != 0 {
		panic(fmt.Sprintf("cache: %d lines not divisible by associativity %d", lines, assoc))
	}
	numSets := lines / assoc
	if numSets < 2 {
		panic("cache: need at least 2 sets for paired sub-lines")
	}
	if numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d must be a power of two", numSets))
	}
	sets := make([][]refWay, numSets)
	backing := make([]refWay, numSets*assoc)
	for i := range sets {
		sets[i], backing = backing[:assoc], backing[assoc:]
	}
	return &refLLC{
		sets:     sets,
		numSets:  uint64(numSets),
		tagShift: uint(bits.TrailingZeros64(uint64(numSets))),
		assoc:    assoc,
		policy:   policy,
	}
}

func (c *refLLC) Reset() {
	for _, set := range c.sets {
		clear(set)
	}
	c.clock, c.tagReads = 0, 0
	c.hits, c.misses, c.writebacks = 0, 0, 0
}

func (c *refLLC) setIndex(addr uint64) uint64 { return addr & (c.numSets - 1) }
func (c *refLLC) tagOf(addr uint64) uint64    { return addr >> c.tagShift }

func (c *refLLC) find(addr uint64) *refWay {
	set := c.sets[c.setIndex(addr)]
	tag := c.tagOf(addr)
	c.tagReads++
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return &set[i]
		}
	}
	return nil
}

// Access looks up addr, updating recency and the dirty bit on a hit.
// It reports whether the access hit.
func (c *refLLC) Access(addr uint64, write bool) bool {
	c.clock++
	if w := c.find(addr); w != nil {
		c.hits++
		w.lastUse = c.clock
		if write {
			w.dirty = true
		}
		return true
	}
	c.misses++
	return false
}

// contains reports residency without touching recency or statistics.
func (c *refLLC) contains(addr uint64) bool {
	set := c.sets[c.setIndex(addr)]
	tag := c.tagOf(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

func (c *refLLC) InsertInto(addr uint64, upgraded, write bool, evs []Eviction) []Eviction {
	c.clock++
	if !upgraded {
		return c.insertOne(addr, false, write, evs)
	}
	lo, hi := addr&^uint64(1), addr|1
	evs = c.insertOne(lo, true, write && addr == lo, evs)
	evs = c.insertOne(hi, true, write && addr == hi, evs)
	return evs
}

func (c *refLLC) insertOne(addr uint64, upgraded, dirty bool, evs []Eviction) []Eviction {
	if w := c.find(addr); w != nil {
		// Already resident (e.g. partner was brought in earlier).
		w.lastUse = c.clock
		w.upgraded = w.upgraded || upgraded
		w.dirty = w.dirty || dirty
		return evs
	}
	set := c.sets[c.setIndex(addr)]
	victim := c.pickVictim(addr, set)
	if victim.valid {
		evs = c.evict(victim, c.setIndex(addr), evs)
	}
	*victim = refWay{tag: c.tagOf(addr), valid: true, dirty: dirty, upgraded: upgraded, lastUse: c.clock}
	return evs
}

// pickVictim selects the LRU way. Under SharedRecency, a sub-line of an
// upgraded pair is judged by the most recent use of either sub-line, which
// costs a second tag access (counted; the paper doubles replacement time
// and observes no slowdown).
func (c *refLLC) pickVictim(addr uint64, set []refWay) *refWay {
	for i := range set {
		if !set[i].valid {
			return &set[i]
		}
	}
	setIdx := c.setIndex(addr)
	best := 0
	bestRecency := int64(1<<62 - 1)
	for i := range set {
		rec := set[i].lastUse
		if c.policy == SharedRecency && set[i].upgraded {
			if p := c.partnerOf(&set[i], setIdx); p != nil {
				c.tagReads++
				if p.lastUse > rec {
					rec = p.lastUse
				}
			}
		}
		if rec < bestRecency {
			bestRecency = rec
			best = i
		}
	}
	return &set[best]
}

// partnerOf finds the partner sub-line of w (which lives in the adjacent
// set with the same tag), or nil if it is not resident.
func (c *refLLC) partnerOf(w *refWay, setIdx uint64) *refWay {
	addr := w.tag<<c.tagShift | setIdx
	partner := addr ^ 1
	set := c.sets[c.setIndex(partner)]
	tag := c.tagOf(partner)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return &set[i]
		}
	}
	return nil
}

// evict removes w and, for upgraded sub-lines, also removes the partner so
// both halves write back together. The evictions are appended to evs.
func (c *refLLC) evict(w *refWay, setIdx uint64, evs []Eviction) []Eviction {
	addr := w.tag<<c.tagShift | setIdx
	if !w.upgraded {
		if w.dirty {
			c.writebacks++
		}
		w.valid = false
		return append(evs, Eviction{Addr: addr, Dirty: w.dirty})
	}
	partnerAddr := addr ^ 1
	base := len(evs)
	evs = append(evs, Eviction{Addr: addr, Dirty: w.dirty, Upgraded: true, PairedWith: partnerAddr})
	if p := c.partnerOf(w, setIdx); p != nil {
		// Either sub-line dirty forces the pair to write back together.
		evs = append(evs, Eviction{Addr: partnerAddr, Dirty: p.dirty, Upgraded: true, PairedWith: addr})
		if w.dirty || p.dirty {
			evs[base].Dirty = true
			evs[base+1].Dirty = true
			c.writebacks += 2
		}
		p.valid = false
	} else if w.dirty {
		c.writebacks++
	}
	w.valid = false
	return evs
}

// Stats returns hit/miss/writeback counters and total tag reads (the extra
// tag read per replacement is the overhead §4.2.3 discusses).
func (c *refLLC) Stats() (hits, misses, writebacks, tagReads int64) {
	return c.hits, c.misses, c.writebacks, c.tagReads
}

// Page modes for the differential driver.
const (
	pagesHashed   = iota // per-page mode from a hash, as the simulator's oracle
	pagesUpgraded        // every fill upgraded
	pagesRelaxed         // every fill relaxed
	pagesRandom          // a fresh coin per operation, so one line can be re-inserted in the other mode
	numPageModes
)

// diffGeometries are the cache shapes the differential driver cycles
// through: tiny sets that evict on nearly every fill, and a 16-way shape
// like the simulator's.
var diffGeometries = [...]struct{ size, assoc int }{
	{1024, 4},       // 4 sets x 4 ways
	{8 * 1024, 2},   // 64 sets x 2 ways
	{16 * 1024, 16}, // 16 sets x 16 ways
}

// checkLLCMatchesReference replays an operation stream, three bytes per
// operation, on the flat LLC and the reference model and fails on the first
// difference in a hit, an eviction list, residency, or any Stats counter.
// Operation byte b0 selects the kind: 0 resets both caches mid-stream,
// b0&7 == 1 is a bare InsertInto with no preceding Access (re-inserting a
// resident line, possibly relaxed as upgraded), b0&7 == 2 probes contains,
// and every other value is the simulator's Access-then-InsertInto-on-miss.
// b0&16 is the write bit; b1:b2 picks the line from a span four times the
// cache's capacity.
func checkLLCMatchesReference(t testing.TB, policy Policy, size, assoc, pages int, ops []byte) {
	t.Helper()
	got, want := New(size, assoc, policy), newRefLLC(size, assoc, policy)
	span := uint64(4 * size / 64)
	var gotEvs, wantEvs []Eviction
	for n := 0; n+3 <= len(ops); n += 3 {
		b0 := ops[n]
		addr := (uint64(ops[n+1])<<8 | uint64(ops[n+2])) % span
		write := b0&16 != 0
		var upgraded bool
		switch pages {
		case pagesHashed:
			upgraded = ((addr>>6)*0x9E3779B97F4A7C15)>>63 != 0
		case pagesUpgraded:
			upgraded = true
		case pagesRandom:
			upgraded = b0&32 != 0
		}
		op := "access"
		switch {
		case b0 == 0:
			got.Reset()
			want.Reset()
			op = "reset"
		case b0&7 == 1:
			gotEvs = got.InsertInto(addr, upgraded, write, gotEvs[:0])
			wantEvs = want.InsertInto(addr, upgraded, write, wantEvs[:0])
			op = "bare insert"
		case b0&7 == 2:
			if g, w := got.contains(addr), want.contains(addr); g != w {
				t.Fatalf("op %d: contains(%d) = %v, reference %v", n/3, addr, g, w)
			}
			op = "contains"
		default:
			g, w := got.Access(addr, write), want.Access(addr, write)
			if g != w {
				t.Fatalf("op %d: Access(%d) hit = %v, reference %v", n/3, addr, g, w)
			}
			gotEvs, wantEvs = gotEvs[:0], wantEvs[:0]
			if !g {
				gotEvs = got.InsertInto(addr, upgraded, write, gotEvs)
				wantEvs = want.InsertInto(addr, upgraded, write, wantEvs)
			}
		}
		if !slices.Equal(gotEvs, wantEvs) {
			t.Fatalf("op %d (%s %d, upgraded %v, write %v): evictions %+v, reference %+v",
				n/3, op, addr, upgraded, write, gotEvs, wantEvs)
		}
		gotEvs, wantEvs = gotEvs[:0], wantEvs[:0]
		gh, gm, gw, gt := got.Stats()
		wh, wm, ww, wt := want.Stats()
		if gh != wh || gm != wm || gw != ww || gt != wt {
			t.Fatalf("op %d (%s %d): stats hits/misses/writebacks/tagReads %d/%d/%d/%d, reference %d/%d/%d/%d",
				n/3, op, addr, gh, gm, gw, gt, wh, wm, ww, wt)
		}
	}
	for addr := uint64(0); addr < span; addr++ {
		if g, w := got.contains(addr), want.contains(addr); g != w {
			t.Fatalf("end of stream: contains(%d) = %v, reference %v", addr, g, w)
		}
	}
	checkLLCInvariants(t, got)
}

// checkLLCInvariants verifies the flat layout's bookkeeping, which the
// observable behaviour alone does not pin: invalid slots are fully cleared,
// each set's valid mask marks exactly its valid ways, every upgraded line
// links symmetrically to its upgraded partner and every other slot to
// itself, and the per-set upgraded counts are exact.
func checkLLCInvariants(t testing.TB, c *LLC) {
	t.Helper()
	for set := 0; set <= int(c.setMask); set++ {
		var upgraded int32
		var valid uint64
		for i := set * c.assoc; i < (set+1)*c.assoc; i++ {
			if c.keys[i] != 0 {
				valid |= 1 << (i - set*c.assoc)
			}
		}
		if valid != c.valid[set] {
			t.Fatalf("set %d: valid ways %#x, mask says %#x", set, valid, c.valid[set])
		}
		for i := set * c.assoc; i < (set+1)*c.assoc; i++ {
			if c.keys[i] == 0 {
				if c.lastUse[i] != 0 || c.flags[i] != 0 || c.link[i] != 0 {
					t.Fatalf("invalid slot %d not cleared: lastUse %d flags %d link %d", i, c.lastUse[i], c.flags[i], c.link[i])
				}
				continue
			}
			if c.flags[i]&flagUpgraded == 0 {
				if c.link[i] != 0 {
					t.Fatalf("relaxed slot %d links to %d, not itself", i, c.link[i])
				}
				continue
			}
			upgraded++
			p := i + int(c.link[i])
			addr := (c.keys[i]-1)<<c.tagShift | uint64(set)
			_, base, key := c.locate(addr ^ 1)
			if p < base || p >= base+c.assoc || p+int(c.link[p]) != i ||
				c.keys[p] != key || c.flags[p]&flagUpgraded == 0 {
				t.Fatalf("upgraded line %d (slot %d) has a broken partner link %d", addr, i, p)
			}
		}
		if upgraded != c.upgraded[set] {
			t.Fatalf("set %d: %d upgraded ways, count says %d", set, upgraded, c.upgraded[set])
		}
	}
}

// TestLLCMatchesReference drives both policies, every geometry and every
// page mode through seeded random operation streams, including mid-stream
// resets and bare inserts.
func TestLLCMatchesReference(t *testing.T) {
	for _, policy := range []Policy{SharedRecency, IndependentLRU} {
		for gi, g := range diffGeometries {
			for pages := 0; pages < numPageModes; pages++ {
				rng := rand.New(rand.NewSource(int64(gi*numPageModes + pages + 1)))
				ops := make([]byte, 3*20000)
				rng.Read(ops)
				// Keep resets rare enough that the caches fill between them.
				for i := 0; i < len(ops); i += 3 {
					if ops[i] == 0 && rng.Intn(8) != 0 {
						ops[i] = 3
					}
				}
				checkLLCMatchesReference(t, policy, g.size, g.assoc, pages, ops)
			}
		}
	}
}

// FuzzLLCMatchesReference lets the fuzzer pick the policy, geometry, page
// mode and operation stream.
func FuzzLLCMatchesReference(f *testing.F) {
	f.Add(byte(0), []byte{3, 0, 10, 3, 0, 74, 3, 0, 138, 1, 0, 11})
	f.Add(byte(0x25), []byte{33, 0, 20, 1, 0, 21, 49, 0, 21, 0, 0, 0, 3, 1, 1})
	f.Fuzz(func(t *testing.T, shape byte, ops []byte) {
		policy := Policy(shape & 1)
		g := diffGeometries[int(shape>>1&3)%len(diffGeometries)]
		checkLLCMatchesReference(t, policy, g.size, g.assoc, int(shape>>3)%numPageModes, ops)
	})
}
