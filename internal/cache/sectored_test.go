package cache

import (
	"math/rand"
	"testing"
)

func TestSectoredMissThenHit(t *testing.T) {
	c := NewSectored(8*1024, 2)
	if c.Access(100, false) {
		t.Fatal("cold hit")
	}
	c.Insert(100, false, false)
	if !c.Access(100, false) {
		t.Fatal("miss after insert")
	}
	// The partner sub-sector is NOT valid after a relaxed fill.
	if c.Access(101, false) {
		t.Fatal("relaxed fill validated the partner sub-sector")
	}
}

func TestSectoredUpgradedFillValidatesBoth(t *testing.T) {
	c := NewSectored(8*1024, 2)
	c.Insert(10, true, false)
	if !c.Access(10, false) || !c.Access(11, false) {
		t.Fatal("upgraded fill must validate both sub-sectors")
	}
}

func TestSectoredPartnerFillSharesTag(t *testing.T) {
	c := NewSectored(8*1024, 2)
	c.Insert(20, false, false)
	c.Insert(21, false, true) // same sector, second sub-sector, dirty
	if !c.Access(20, false) || !c.Access(21, false) {
		t.Fatal("both sub-sectors should now be valid under one tag")
	}
}

func TestSectoredEvictionWritesBackDirtySubsectors(t *testing.T) {
	c := NewSectored(8*1024, 2) // 32 sets of 2 sectors
	c.Insert(0, false, true)    // sector 0, sub 0, dirty
	// Fill set 0 with conflicting sectors (sector addr stride = 32).
	var evs []Eviction
	for _, line := range []uint64{64, 128, 192} { // sectors 32, 64, 96 -> set 0
		evs = append(evs, c.Insert(line, false, false)...)
	}
	var sawDirty bool
	for _, e := range evs {
		if e.Addr == 0 && e.Dirty {
			sawDirty = true
		}
	}
	if !sawDirty {
		t.Fatalf("dirty sub-sector not written back on eviction: %+v", evs)
	}
}

func TestSectoredUpgradedEvictionPairsDirty(t *testing.T) {
	c := NewSectored(8*1024, 2)
	c.Insert(0, true, true) // upgraded sector, sub 0 dirty
	var evs []Eviction
	for _, line := range []uint64{64, 128, 192} {
		evs = append(evs, c.Insert(line, false, false)...)
	}
	var both int
	for _, e := range evs {
		if (e.Addr == 0 || e.Addr == 1) && e.Dirty && e.Upgraded {
			both++
		}
	}
	if both != 2 {
		t.Fatalf("upgraded sector eviction wrote back %d dirty sub-lines, want 2 (%+v)", both, evs)
	}
}

func TestSectoredWastesCapacityOnRandomWorkloads(t *testing.T) {
	// The design tradeoff the paper cites: on a low-spatial-locality
	// workload the sectored cache holds half-empty sectors, so its hit
	// rate falls below the paired-set LLC of the same size.
	run := func(useSectored bool) float64 {
		rng := rand.New(rand.NewSource(3))
		var hitRate func() float64
		var access func(uint64) bool
		var insert func(uint64)
		if useSectored {
			c := NewSectored(64*1024, 8)
			access = func(a uint64) bool { return c.Access(a, false) }
			insert = func(a uint64) { c.Insert(a, false, false) }
			hitRate = c.HitRate
		} else {
			c := New(64*1024, 8, SharedRecency)
			access = func(a uint64) bool { return c.Access(a, false) }
			insert = func(a uint64) { c.InsertInto(a, false, false, nil) }
			hitRate = c.HitRate
		}
		// Hot random working set somewhat larger than half the cache.
		for i := 0; i < 300000; i++ {
			a := uint64(rng.Intn(1200))
			if !access(a) {
				insert(a)
			}
		}
		return hitRate()
	}
	sectored, paired := run(true), run(false)
	if sectored >= paired {
		t.Fatalf("sectored hit rate %.3f should fall below paired-set %.3f on random access", sectored, paired)
	}
}

func TestSectoredPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"zero size":   func() { NewSectored(0, 2) },
		"zero assoc":  func() { NewSectored(1024, 0) },
		"indivisible": func() { NewSectored(128*3, 2) },
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
