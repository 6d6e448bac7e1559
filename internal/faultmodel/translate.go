package faultmodel

import (
	"fmt"

	"arcc/internal/dram"
)

// ToDRAMFault converts a sampled Arrival into a concrete device-level fault
// overlay for the functional DRAM model, choosing the faulty circuitry
// coordinates uniformly within the geometry. Lane arrivals must be expanded
// by the caller (inject the returned fault into every rank of the channel);
// the returned fault carries the arrival's device position. rng is any
// generator with Intn's contract: a *rand.Rand, or an rng.Source, which
// draws the same values from the same seed.
//
// Corruption mode: stuck-at faults for the storage-array scopes, and
// wrong-data (address-decoder) behaviour for row/column faults, mirroring
// the failure-mode discussion in Ch. 2.
func ToDRAMFault(rng interface{ Intn(n int) int }, a Arrival, g dram.Geometry) dram.Fault {
	f := dram.Fault{Device: a.Device}
	if a.Device < 0 || a.Device >= g.DevicesPerRank {
		panic(fmt.Sprintf("faultmodel: arrival device %d outside geometry", a.Device))
	}
	switch a.Type {
	case Bit:
		f.Scope = dram.ScopeBit
		f.Mode = stuckMode(rng)
		f.Bank = rng.Intn(g.BanksPerDevice)
		f.Row = rng.Intn(g.RowsPerBank)
		f.Col = rng.Intn(g.ColsPerRow)
		f.Bit = rng.Intn(8)
	case Word:
		f.Scope = dram.ScopeWord
		f.Mode = stuckMode(rng)
		f.Bank = rng.Intn(g.BanksPerDevice)
		f.Row = rng.Intn(g.RowsPerBank)
		f.Col = rng.Intn(g.ColsPerRow)
	case Column:
		f.Scope = dram.ScopeColumn
		f.Mode = dram.WrongData // faulty column decoder
		f.Bank = rng.Intn(g.BanksPerDevice)
		f.Col = rng.Intn(g.ColsPerRow)
	case Row:
		f.Scope = dram.ScopeRow
		f.Mode = dram.WrongData // faulty row decoder
		f.Bank = rng.Intn(g.BanksPerDevice)
		f.Row = rng.Intn(g.RowsPerBank)
	case Bank:
		f.Scope = dram.ScopeBank
		f.Mode = stuckMode(rng)
		f.Bank = rng.Intn(g.BanksPerDevice)
	case Device, Lane:
		f.Scope = dram.ScopeDevice
		f.Mode = stuckMode(rng)
	default:
		panic(fmt.Sprintf("faultmodel: unknown fault type %v", a.Type))
	}
	return f
}

func stuckMode(rng interface{ Intn(n int) int }) dram.Mode {
	if rng.Intn(2) == 0 {
		return dram.StuckAt0
	}
	return dram.StuckAt1
}
