package pagetable

import (
	"math/rand"
	"testing"
)

func TestNewStartsUpgraded(t *testing.T) {
	tbl := New(100)
	for i := 0; i < 100; i++ {
		if tbl.Mode(i) != Upgraded {
			t.Fatalf("page %d starts in %v, want upgraded (boot state)", i, tbl.Mode(i))
		}
	}
	if tbl.Count(Upgraded) != 100 || tbl.Count(Relaxed) != 0 {
		t.Fatal("counts wrong after New")
	}
}

func TestNewPanicsOnZeroPages(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

func TestRelaxAllThenUpgrade(t *testing.T) {
	tbl := New(10)
	tbl.RelaxAll()
	if tbl.Count(Relaxed) != 10 || tbl.UpgradedFraction() != 0 {
		t.Fatal("RelaxAll did not relax everything")
	}
	tbl.SetMode(3, Upgraded)
	if tbl.Mode(3) != Upgraded || tbl.Count(Upgraded) != 1 || tbl.Count(Relaxed) != 9 {
		t.Fatal("counts wrong after one upgrade")
	}
	if f := tbl.UpgradedFraction(); f != 0.1 {
		t.Fatalf("UpgradedFraction = %v, want 0.1", f)
	}
}

// TestUpgradeLevels walks one page through both upgrade levels of a
// terabyte-scale table (2^28 pages of 4 KB) and checks that the sparse
// representation holds only the page that diverged from the default.
func TestUpgradeLevels(t *testing.T) {
	tbl := New(1 << 28)
	tbl.RelaxAll()
	for _, m := range []Mode{Upgraded, Upgraded8} {
		tbl.SetMode(1<<27, m)
		if tbl.Mode(1<<27) != m || tbl.Count(m) != 1 || tbl.Count(Relaxed) != 1<<28-1 {
			t.Fatalf("counts wrong at %v", m)
		}
		if len(tbl.except) != 1 {
			t.Fatalf("%d exceptions after upgrading one page, want 1", len(tbl.except))
		}
	}
	tbl.SetMode(1<<27, Relaxed)
	if len(tbl.except) != 0 || tbl.Count(Relaxed) != 1<<28 {
		t.Fatalf("relaxing the page back left %d exceptions", len(tbl.except))
	}
}

func TestSetModeIdempotent(t *testing.T) {
	tbl := New(5)
	tbl.SetMode(2, Upgraded)
	tbl.SetMode(2, Upgraded)
	if tbl.Count(Upgraded) != 5 {
		t.Fatalf("count drifted on idempotent SetMode: %d", tbl.Count(Upgraded))
	}
}

func TestCountsAlwaysSumToLen(t *testing.T) {
	tbl := New(64)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		page := rng.Intn(64)
		switch rng.Intn(3) {
		case 0:
			tbl.SetMode(page, Mode(rng.Intn(3)))
		case 1:
			tbl.SetMode(page, min(tbl.Mode(page)+1, Upgraded8))
		case 2:
			if rng.Intn(100) == 0 {
				tbl.RelaxAll()
			}
		}
		if got := tbl.Count(Relaxed) + tbl.Count(Upgraded) + tbl.Count(Upgraded8); got != 64 {
			t.Fatalf("iteration %d: counts sum to %d, want 64", i, got)
		}
	}
}

func TestPanicsOnBadArguments(t *testing.T) {
	tbl := New(4)
	for name, f := range map[string]func(){
		"Mode out of range":  func() { tbl.Mode(4) },
		"SetMode page range": func() { tbl.SetMode(-1, Relaxed) },
		"SetMode bad mode":   func() { tbl.SetMode(0, Mode(7)) },
		"Count bad mode":     func() { tbl.Count(Mode(-1)) },
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

func TestModeString(t *testing.T) {
	if Relaxed.String() != "relaxed" || Upgraded.String() != "upgraded" || Upgraded8.String() != "upgraded8" {
		t.Fatal("mode strings wrong")
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode must still print")
	}
}
