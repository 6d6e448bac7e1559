package scrub

import (
	"bytes"
	"math/rand"
	"testing"

	"arcc/internal/core"
	"arcc/internal/dram"
	"arcc/internal/faultmodel"
	"arcc/internal/pagetable"
)

func TestSecondLevelUpgradeOnRepeatFault(t *testing.T) {
	// First scrub: fault -> pages upgrade to 4-check mode. Second fault in
	// another channel, next scrub: pages promote to 8-check mode (§5.1),
	// which a four-channel controller always applies.
	mem := core.New(core.Config{Pages: 32, Channels: 4, RanksPerChannel: 2, BanksPerDevice: 8, RowsPerBank: 2})
	mem.RelaxAll()
	s := New(mem, FourStep)

	mem.InjectFault(0, 0, dram.Fault{Device: 4, Scope: dram.ScopeDevice, Mode: dram.StuckAt1})
	s.FullScrub()
	if mem.Table().Count(pagetable.Upgraded) == 0 {
		t.Fatal("first fault did not upgrade pages")
	}
	if mem.Table().Count(pagetable.Upgraded8) != 0 {
		t.Fatal("no page should be at the second level yet")
	}

	mem.InjectFault(2, 0, dram.Fault{Device: 9, Scope: dram.ScopeDevice, Mode: dram.StuckAt0})
	s.FullScrub()
	if mem.Table().Count(pagetable.Upgraded8) == 0 {
		t.Fatal("second fault did not promote pages to upgraded8")
	}
}

// TestLifetimeSoak is the functional integration test: two simulated years
// of fault arrivals (at inflated rates) play against a real controller with
// real codewords, with a four-hourly scrub schedule. Data written before
// the faults must either read back intact or be flagged as a DUE — silent
// corruption of a *relaxed-mode guaranteed* pattern (single fault per
// channel-rank) must never happen.
func TestLifetimeSoak(t *testing.T) {
	// Daily scrubs over one year keep the test fast; the mechanism is
	// identical at the paper's four-hour cadence.
	mem := core.New(core.Config{Pages: 32, Channels: 2, RanksPerChannel: 2, BanksPerDevice: 8, RowsPerBank: 1})
	mem.RelaxAll()
	s := New(mem, FourStep)
	nextScrub := 24.0
	advanceTo := func(hours float64) {
		for ; nextScrub <= hours; nextScrub += 24 {
			s.FullScrub()
		}
	}
	rng := rand.New(rand.NewSource(99))

	// Reference content.
	want := make(map[[2]int][]byte)
	for page := 0; page < mem.Pages(); page++ {
		for line := 0; line < core.LinesPerPage; line += 16 {
			data := make([]byte, core.LineBytes)
			rng.Read(data)
			if err := mem.WriteLine(page, line, data); err != nil {
				t.Fatal(err)
			}
			want[[2]int{page, line}] = data
		}
	}

	// Fault history: heavily inflated rates so something happens, but at
	// most one device-scale fault per (channel, rank) to stay within the
	// relaxed mode's single-symbol guarantee between scrubs.
	rates := faultmodel.FieldStudyRates().Scale(100000)
	arrivals := faultmodel.SampleArrivalsInto(rng, nil, rates, 2, 18, 1)
	if len(arrivals) == 0 {
		t.Fatal("soak needs at least one arrival; raise the rate factor")
	}
	const maxFaults = 6
	geom := mem.Rank(0, 0).Geometry()
	used := map[[2]int]bool{}
	injected := 0
	for _, a := range arrivals {
		if injected >= maxFaults {
			break
		}
		if a.Type == faultmodel.Lane {
			continue // lane faults hit both ranks; skip for guarantee bookkeeping
		}
		channel := rng.Intn(2)
		key := [2]int{channel, a.Rank}
		if used[key] {
			continue // second fault in the same rank could defeat relaxed mode legally
		}
		used[key] = true
		advanceTo(a.AtHours)
		mem.InjectFault(channel, a.Rank, faultmodel.ToDRAMFault(rng, a, geom))
		injected++
	}
	advanceTo(faultmodel.HoursPerYear)
	if injected == 0 {
		t.Fatal("no usable faults injected")
	}

	// Every line must read back correctly: single faults per rank are
	// always correctable (relaxed before scrub, upgraded after).
	for key, data := range want {
		got, err := mem.ReadLine(key[0], key[1])
		if err != nil {
			t.Fatalf("page %d line %d: unexpected DUE after soak: %v", key[0], key[1], err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("page %d line %d: SILENT CORRUPTION after soak", key[0], key[1])
		}
	}

	st := s.Stats()
	if st.Scrubs < 300 {
		t.Fatalf("only %d scrubs over a year of daily scrubbing; schedule broken", st.Scrubs)
	}
	t.Logf("soak: %d faults injected, %d scrubs, %d pages upgraded, %d corrections, %d DUEs",
		injected, st.Scrubs, st.PagesUpgraded, mem.Stats().Corrected, mem.Stats().DUEs)
}
