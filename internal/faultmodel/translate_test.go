package faultmodel

import (
	"math/rand"
	"testing"

	"arcc/internal/dram"
	"arcc/internal/rng"
)

// TestToDRAMFaultSameFromEitherGenerator: a *rand.Rand and an rng.Source
// seeded alike translate every fault type to the same overlay, draw for
// draw.
func TestToDRAMFaultSameFromEitherGenerator(t *testing.T) {
	g := dram.Geometry{DevicesPerRank: 18, BanksPerDevice: 8, RowsPerBank: 64, ColsPerRow: 32, BeatsPerLine: 4}
	r := rand.New(rand.NewSource(7))
	src := new(rng.Source)
	src.Seed(7)
	for i := range 200 {
		a := Arrival{Type: Types()[i%len(Types())], Device: i % g.DevicesPerRank}
		if want, got := ToDRAMFault(r, a, g), ToDRAMFault(src, a, g); got != want {
			t.Fatalf("arrival %d (%v): rng.Source gives %+v, *rand.Rand %+v", i, a.Type, got, want)
		}
	}
}
