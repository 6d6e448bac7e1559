package core

import (
	"math/rand"
	"testing"

	"arcc/internal/dram"
	"arcc/internal/pagetable"
)

// BenchmarkControllerAccess times one line access through the group path
// of each page mode on a four-channel controller: Read (ReadLineInto) and
// Write (WriteLine, a read-modify-write above width 1) on fault-free
// memory, and Correct (CorrectLine) with one dead device in channel 0, so
// each call repairs its group and writes it back. Every access targets a
// line of channel 0 (lines 0, 4, 8, ...), whose group the dead device
// reaches in every mode.
func BenchmarkControllerAccess(b *testing.B) {
	modes := []struct {
		name string
		mode pagetable.Mode
	}{{"relaxed", pagetable.Relaxed}, {"upgraded", pagetable.Upgraded}, {"upgraded8", pagetable.Upgraded8}}
	for _, op := range []string{"Read", "Write", "Correct"} {
		for _, m := range modes {
			b.Run(op+"/"+m.name, func(b *testing.B) {
				c := New(Config{Pages: 4, Channels: 4, RanksPerChannel: 1, BanksPerDevice: 8, RowsPerBank: 1})
				c.RelaxAll()
				if m.mode != pagetable.Relaxed {
					_ = c.UpgradePage(0)
				}
				if m.mode == pagetable.Upgraded8 {
					_ = c.UpgradePageToStrong(0)
				}
				r := rand.New(rand.NewSource(1))
				line := make([]byte, LineBytes)
				for ln := 0; ln < LinesPerPage; ln++ {
					r.Read(line)
					if err := c.WriteLine(0, ln, line); err != nil {
						b.Fatal(err)
					}
				}
				if op == "Correct" {
					c.InjectFault(0, 0, dram.Fault{Device: 5, Scope: dram.ScopeDevice, Mode: dram.WrongData})
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ln := 4 * i % LinesPerPage
					var err error
					switch op {
					case "Read":
						err = c.ReadLineInto(0, ln, line)
					case "Write":
						err = c.WriteLine(0, ln, line)
					case "Correct":
						_, err = c.CorrectLine(0, ln)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
