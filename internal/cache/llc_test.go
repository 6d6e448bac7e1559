package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// contains reports residency without touching recency or statistics.
func (c *LLC) contains(addr uint64) bool {
	_, base, key := c.locate(addr)
	return c.lookup(base, key) >= 0
}

func newSmall(policy Policy) *LLC {
	// 8 KB, 2-way: 64 sets — small enough to force evictions quickly.
	return New(8*1024, 2, policy)
}

func TestNewPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"zero size":   func() { New(0, 2, SharedRecency) },
		"zero assoc":  func() { New(1024, 0, SharedRecency) },
		"indivisible": func() { New(64*3, 2, SharedRecency) },
		"one set":     func() { New(128, 2, SharedRecency) },
		"assoc > 64":  func() { New(1<<20, 128, SharedRecency) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestMissThenHit(t *testing.T) {
	c := newSmall(SharedRecency)
	if c.Access(100, false) {
		t.Fatal("cold access hit")
	}
	c.InsertInto(100, false, false, nil)
	if !c.Access(100, false) {
		t.Fatal("access after insert missed")
	}
	hits, misses, _, _ := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats %d/%d", hits, misses)
	}
}

func TestLRUEviction(t *testing.T) {
	c := newSmall(SharedRecency) // 64 sets, 2 ways
	// Three addresses in the same set (stride = numSets).
	a, b, d := uint64(0), uint64(64), uint64(128)
	c.InsertInto(a, false, false, nil)
	c.InsertInto(b, false, false, nil)
	c.Access(a, false) // b becomes LRU
	ev := c.InsertInto(d, false, false, nil)
	if len(ev) != 1 || ev[0].Addr != b {
		t.Fatalf("evictions = %+v, want [b=64]", ev)
	}
	if !c.contains(a) || c.contains(b) || !c.contains(d) {
		t.Fatal("wrong resident set after eviction")
	}
}

func TestDirtyEvictionCountsWriteback(t *testing.T) {
	c := newSmall(SharedRecency)
	c.InsertInto(0, false, true, nil) // dirty
	c.InsertInto(64, false, false, nil)
	ev := c.InsertInto(128, false, false, nil) // evicts 0 (LRU)
	if len(ev) != 1 || !ev[0].Dirty {
		t.Fatalf("evictions = %+v, want dirty eviction of 0", ev)
	}
	_, _, wb, _ := c.Stats()
	if wb != 1 {
		t.Fatalf("writebacks = %d, want 1", wb)
	}
}

func TestUpgradedInsertBringsBothSubLines(t *testing.T) {
	c := newSmall(SharedRecency)
	c.InsertInto(10, true, false, nil)
	if !c.contains(10) || !c.contains(11) {
		t.Fatal("upgraded insert must fill both sub-lines")
	}
	// Sub-lines land in adjacent sets.
	s10, _, _ := c.locate(10)
	s11, _, _ := c.locate(11)
	if s10 == s11 {
		t.Fatal("sub-lines should map to different (adjacent) sets")
	}
}

func TestUpgradedPairEvictsTogether(t *testing.T) {
	c := newSmall(SharedRecency)
	c.InsertInto(10, true, true, nil) // pair {10, 11}, 10 dirty
	// Force eviction of 10 by filling its set (set index 10, 2 ways) with
	// same-set addresses; collect evictions across all inserts.
	var ev []Eviction
	for _, a := range []uint64{10 + 64, 10 + 128, 10 + 192} {
		ev = append(ev, c.InsertInto(a, false, false, nil)...)
	}
	var sawPair int
	for _, e := range ev {
		if e.Addr == 10 || e.Addr == 11 {
			sawPair++
			if !e.Upgraded {
				t.Fatal("pair eviction not flagged upgraded")
			}
			if !e.Dirty {
				t.Fatal("either-dirty must force both sub-lines to write back dirty")
			}
		}
	}
	if sawPair != 2 {
		t.Fatalf("evicting one sub-line evicted %d pair members, want 2 (%+v)", sawPair, ev)
	}
	if c.contains(11) {
		t.Fatal("partner sub-line still resident after pair eviction")
	}
}

func TestSharedRecencyProtectsPartner(t *testing.T) {
	// Pair {0, 1}; only sub-line 1 is reused. Under SharedRecency the
	// reuse of 1 must protect 0 from eviction.
	c := newSmall(SharedRecency)
	c.InsertInto(0, true, false, nil) // pair {0,1}: 0 in set 0, 1 in set 1
	c.InsertInto(64, false, false, nil)
	c.Access(1, false)                         // refresh partner's recency
	c.Access(64, false)                        // refresh competitor too... make 64 newer than 0's own use
	c.Access(1, false)                         // partner newest overall
	ev := c.InsertInto(128, false, false, nil) // set 0 is full: {0, 64}
	if len(ev) != 1 {
		t.Fatalf("evictions %+v", ev)
	}
	if ev[0].Addr != 64 {
		t.Fatalf("evicted %d, want 64: shared recency should protect sub-line 0", ev[0].Addr)
	}
}

func TestIndependentLRUDoesNotProtectPartner(t *testing.T) {
	c := newSmall(IndependentLRU)
	c.InsertInto(0, true, false, nil)
	c.InsertInto(64, false, false, nil)
	c.Access(1, false)
	c.Access(64, false)
	c.Access(1, false)
	ev := c.InsertInto(128, false, false, nil)
	// Under independent LRU, sub-line 0's own recency is oldest, so the
	// pair gets evicted despite partner reuse.
	found := false
	for _, e := range ev {
		if e.Addr == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("independent LRU should evict sub-line 0 (evictions %+v)", ev)
	}
}

func TestPartnerReinsertIsIdempotent(t *testing.T) {
	c := newSmall(SharedRecency)
	c.InsertInto(20, true, false, nil)
	c.InsertInto(21, true, true, nil) // partner already resident; must not duplicate
	if !c.contains(20) || !c.contains(21) {
		t.Fatal("pair should be resident")
	}
	// Count resident copies of 21's key in its set.
	_, base, key := c.locate(21)
	n := 0
	for _, k := range c.keys[base : base+c.assoc] {
		if k == key {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("%d copies of line 21 resident, want 1", n)
	}
}

func TestWriteMarksOnlyRequestedSubLineDirty(t *testing.T) {
	c := newSmall(SharedRecency)
	c.InsertInto(30, true, true, nil) // write to even sub-line
	// Evict the pair and check dirtiness: 30 dirty, and pair write-back
	// policy promotes both to dirty together.
	c.InsertInto(30+64, false, false, nil)
	c.InsertInto(30+128, false, false, nil)
	ev := c.InsertInto(30+192, false, false, nil)
	for _, e := range ev {
		if (e.Addr == 30 || e.Addr == 31) && !e.Dirty {
			t.Fatalf("pair member %d not dirty on paired write-back", e.Addr)
		}
	}
}

func TestTagReadsCountedForSharedRecency(t *testing.T) {
	c := newSmall(SharedRecency)
	c.InsertInto(0, true, false, nil)
	c.InsertInto(64, false, false, nil)
	_, _, _, before := c.Stats()
	c.InsertInto(128, false, false, nil) // replacement in set 0 examines partner tag
	_, _, _, after := c.Stats()
	if after <= before {
		t.Fatal("replacement did not record extra tag reads")
	}
}

func TestHitRate(t *testing.T) {
	c := newSmall(SharedRecency)
	if c.HitRate() != 0 {
		t.Fatal("hit rate before any access")
	}
	c.InsertInto(5, false, false, nil)
	c.Access(5, false)
	c.Access(6, false)
	if got := c.HitRate(); got != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", got)
	}
}

func TestRandomizedInvariantNoDuplicateResidency(t *testing.T) {
	c := New(16*1024, 4, SharedRecency)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50000; i++ {
		addr := uint64(rng.Intn(4096))
		upgraded := rng.Intn(3) == 0
		write := rng.Intn(2) == 0
		if !c.Access(addr, write) {
			c.InsertInto(addr, upgraded, write, nil)
		}
	}
	// Invariant: no tag appears twice in a set.
	for base := 0; base < len(c.keys); base += c.assoc {
		seen := map[uint64]bool{}
		for _, k := range c.keys[base : base+c.assoc] {
			if k == 0 {
				continue
			}
			if seen[k] {
				t.Fatalf("set %d holds duplicate tag %d", base/c.assoc, k-1)
			}
			seen[k] = true
		}
	}
}

func TestSpatialWorkloadBenefitsFromUpgradedPrefetch(t *testing.T) {
	// With strong spatial locality, inserting 128 B pairs should raise the
	// hit rate versus 64 B fills — the "useful prefetch" effect of §7.2.
	run := func(upgraded bool) float64 {
		c := New(64*1024, 8, SharedRecency)
		rng := rand.New(rand.NewSource(2))
		addr := uint64(0)
		for i := 0; i < 200000; i++ {
			if rng.Float64() < 0.8 {
				addr++
			} else {
				addr = uint64(rng.Intn(1 << 20))
			}
			if !c.Access(addr, false) {
				c.InsertInto(addr, upgraded, false, nil)
			}
		}
		return c.HitRate()
	}
	relaxed, upgraded := run(false), run(true)
	if upgraded <= relaxed {
		t.Fatalf("upgraded-line prefetch did not help a sequential workload: %v <= %v", upgraded, relaxed)
	}
}

// TestAccessInsertAllocationFree pins the steady-state LLC hot path to zero
// heap allocations: lookups, and fills through InsertInto with a reused
// eviction scratch.
func TestAccessInsertAllocationFree(t *testing.T) {
	c := newSmall(SharedRecency)
	evs := make([]Eviction, 0, 4)
	addr := uint64(0)
	fill := func() {
		a := addr % 4096
		if !c.Access(a, addr%5 == 0) {
			evs = c.InsertInto(a, addr%3 == 0, addr%5 == 0, evs[:0])
		}
		addr += 17
	}
	for i := 0; i < 1000; i++ {
		fill() // populate so the measured runs evict constantly
	}
	if allocs := testing.AllocsPerRun(2000, fill); allocs != 0 {
		t.Errorf("Access+InsertInto: %v allocs/op, want 0", allocs)
	}
}

// TestReset pins that a reset cache behaves exactly like a fresh one.
func TestReset(t *testing.T) {
	used := newSmall(SharedRecency)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 5000; i++ {
		a := uint64(rng.Intn(512))
		if !used.Access(a, i%4 == 0) {
			used.InsertInto(a, i%2 == 0, i%4 == 0, nil)
		}
	}
	used.Reset()
	fresh := newSmall(SharedRecency)
	rng = rand.New(rand.NewSource(10))
	for i := 0; i < 5000; i++ {
		a := uint64(rng.Intn(512))
		w := i%4 == 0
		if used.Access(a, w) != fresh.Access(a, w) {
			t.Fatalf("access %d diverged after Reset", i)
		}
		if !fresh.contains(a) {
			wantEv := fresh.InsertInto(a, i%2 == 0, w, nil)
			gotEv := used.InsertInto(a, i%2 == 0, w, nil)
			if len(wantEv) != len(gotEv) {
				t.Fatalf("insert %d diverged after Reset", i)
			}
		}
	}
	uh, um, uw, ut := used.Stats()
	fh, fm, fw, ft := fresh.Stats()
	if uh != fh || um != fm || uw != fw || ut != ft {
		t.Fatalf("stats diverged after Reset: %d/%d/%d/%d vs %d/%d/%d/%d", uh, um, uw, ut, fh, fm, fw, ft)
	}
}

// BenchmarkLLCMissPath times the simulator's LLC step — Access, then
// InsertInto on a miss with a reused eviction buffer — on the Table 7.2
// cache (1 MB, 16-way, shared recency) over a seeded stream with 70%
// sequential lines, a quarter of them writes, and 0%, 50% or 100% of pages
// upgraded. The warm sub-benchmarks fill the cache before timing, so every
// miss evicts from a full set. The cold ones Reset the cache every 16K
// accesses, untimed, so most misses fill a free way, as in a 1M-instruction
// simulator run, where the LLCs stay far from full. One op is one access;
// allocs/op must stay 0.
func BenchmarkLLCMissPath(b *testing.B) {
	type access struct {
		line            uint64
		write, upgraded bool
	}
	for _, warm := range []bool{true, false} {
		for _, pct := range []int{0, 50, 100} {
			name := fmt.Sprintf("upgraded=%d", pct)
			if !warm {
				name = "cold/" + name
			}
			b.Run(name, func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				stream := make([]access, 1<<16)
				line := uint64(0)
				for i := range stream {
					if rng.Float64() < 0.7 {
						line++
					} else {
						line = uint64(rng.Intn(1 << 22))
					}
					page := (line >> 6) * 0x9E3779B97F4A7C15
					stream[i] = access{line, rng.Intn(4) == 0, page>>32%100 < uint64(pct)}
				}
				c := New(1<<20, 16, SharedRecency)
				evs := make([]Eviction, 0, 4)
				step := func(a access) {
					if !c.Access(a.line, a.write) {
						evs = c.InsertInto(a.line, a.upgraded, a.write, evs[:0])
					}
				}
				if warm {
					for _, a := range stream {
						step(a) // fill the cache
					}
				}
				const coldSpan = 1 << 14
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if !warm && i%coldSpan == 0 {
						b.StopTimer()
						c.Reset()
						b.StartTimer()
					}
					step(stream[i&(len(stream)-1)])
				}
			})
		}
	}
}
