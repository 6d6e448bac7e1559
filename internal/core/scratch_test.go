package core

import (
	"bytes"
	"math/rand"
	"testing"

	"arcc/internal/dram"
	"arcc/internal/pagetable"
)

// TestReadIntoMatchesRead pins the caller-buffer read paths to ReadLine
// across all three page modes — ReadLineInto line by line, ReadPairInto and
// ReadQuadInto against the ReadLines of the lines they cover — with faults
// injected so corrections and raw passthrough paths are exercised too.
func TestReadIntoMatchesRead(t *testing.T) {
	for _, upgrade := range []UpgradeCode{UpgradeSCCDCD, UpgradeSparing} {
		cfg := testConfig()
		cfg.Channels = 4
		cfg.Upgrade = upgrade
		c := New(cfg)
		c.RelaxAll()
		r := rand.New(rand.NewSource(11))
		// Page 0 relaxed, page 1 upgraded, page 2 upgraded8.
		for page := 0; page < 3; page++ {
			for line := 0; line < LinesPerPage; line++ {
				if err := c.WriteLine(page, line, randLine(r)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := c.UpgradePage(1); err != nil {
			t.Fatal(err)
		}
		if err := c.UpgradePage(2); err != nil {
			t.Fatal(err)
		}
		if err := c.UpgradePageToStrong(2); err != nil {
			t.Fatal(err)
		}
		c.InjectFault(0, 0, dram.Fault{Device: 3, Scope: dram.ScopeDevice, Mode: dram.StuckAt1})

		buf := make([]byte, LineBytes)
		pairBuf := make([]byte, 2*LineBytes)
		quadBuf := make([]byte, 4*LineBytes)
		for page := 0; page < 3; page++ {
			for line := 0; line < LinesPerPage; line++ {
				want, wantErr := c.ReadLine(page, line)
				gotErr := c.ReadLineInto(page, line, buf)
				if (wantErr == nil) != (gotErr == nil) || !bytes.Equal(want, buf) {
					t.Fatalf("upgrade %v page %d line %d: ReadLineInto diverged", upgrade, page, line)
				}
			}
		}
		// readLines concatenates ReadLine over n lines from first, with the
		// first error any of them reported.
		readLines := func(page, first, n int) ([]byte, error) {
			var out []byte
			var firstErr error
			for line := first; line < first+n; line++ {
				data, err := c.ReadLine(page, line)
				out = append(out, data...)
				if firstErr == nil {
					firstErr = err
				}
			}
			return out, firstErr
		}
		for pair := 0; pair < LinesPerPage/2; pair++ {
			want, wantErr := readLines(1, 2*pair, 2)
			gotErr := c.ReadPairInto(1, pair, pairBuf)
			if (wantErr == nil) != (gotErr == nil) || !bytes.Equal(want, pairBuf) {
				t.Fatalf("upgrade %v pair %d: ReadPairInto diverged", upgrade, pair)
			}
		}
		for quad := 0; quad < LinesPerPage/4; quad++ {
			want, wantErr := readLines(2, 4*quad, 4)
			gotErr := c.ReadQuadInto(2, quad, quadBuf)
			if (wantErr == nil) != (gotErr == nil) || !bytes.Equal(want, quadBuf) {
				t.Fatalf("upgrade %v quad %d: ReadQuadInto diverged", upgrade, quad)
			}
		}
	}
}

// TestControllerSteadyStateAllocationFree pins the controller's scratch
// contract: once every touched line has been written at least once, reads,
// writes, corrections, raw scrub primitives, and whole-page mode
// transitions perform zero heap allocations in every mode.
func TestControllerSteadyStateAllocationFree(t *testing.T) {
	for _, upgrade := range []UpgradeCode{UpgradeSCCDCD, UpgradeSparing} {
		cfg := testConfig()
		cfg.Channels = 4
		cfg.Upgrade = upgrade
		c := New(cfg)
		c.RelaxAll()
		r := rand.New(rand.NewSource(12))
		for page := 0; page < 3; page++ {
			for line := 0; line < LinesPerPage; line++ {
				if err := c.WriteLine(page, line, randLine(r)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := c.UpgradePage(1); err != nil {
			t.Fatal(err)
		}
		if err := c.UpgradePage(2); err != nil {
			t.Fatal(err)
		}
		if err := c.UpgradePageToStrong(2); err != nil {
			t.Fatal(err)
		}
		// A live single-device fault keeps the decoders correcting (the
		// worst steady-state path) without tripping DUEs.
		c.InjectFault(0, 0, dram.Fault{Device: 3, Scope: dram.ScopeDevice, Mode: dram.StuckAt1})

		data := make([]byte, LineBytes)
		raw := make([]byte, 72)
		cases := []struct {
			name string
			f    func()
		}{
			{"ReadLineInto/relaxed", func() { _ = c.ReadLineInto(0, 5, data) }},
			{"ReadLineInto/upgraded", func() { _ = c.ReadLineInto(1, 5, data) }},
			{"ReadLineInto/upgraded8", func() { _ = c.ReadLineInto(2, 5, data) }},
			{"WriteLine/relaxed", func() { _ = c.WriteLine(0, 6, data) }},
			{"WriteLine/upgraded", func() { _ = c.WriteLine(1, 6, data) }},
			{"WriteLine/upgraded8", func() { _ = c.WriteLine(2, 6, data) }},
			{"CorrectLine/relaxed", func() { _, _ = c.CorrectLine(0, 7) }},
			{"CorrectLine/upgraded", func() { _, _ = c.CorrectLine(1, 7) }},
			{"CorrectLine/upgraded8", func() { _, _ = c.CorrectLine(2, 7) }},
			{"RawReadInto+RawWrite", func() { c.RawWrite(0, 8, c.RawReadInto(0, 8, raw)) }},
			{"UpgradePage+RelaxPage", func() {
				if c.Table().Mode(0) == pagetable.Relaxed {
					_ = c.UpgradePage(0)
				}
				_ = c.RelaxPage(0)
			}},
		}
		for _, tc := range cases {
			tc.f() // warm up (first writes may create DRAM store entries)
			if allocs := testing.AllocsPerRun(20, tc.f); allocs != 0 {
				t.Errorf("upgrade %v: %s: %v allocs/op, want 0", upgrade, tc.name, allocs)
			}
		}
	}
}
