// Package reliability implements the paper's reliability analysis
// (Chapters 3 and 6): the fraction of pages touched by faults over a
// memory's lifetime (Fig 3.1), the SDC-rate comparison between always-on
// double error detection (commercial SCCDCD) and ARCC's scrub-race-limited
// detection (Fig 6.1), and the lifetime power/performance overhead
// machinery behind Figs 7.4–7.6.
//
// The SDC analysis follows the modeling approach of the paper's companion
// technical report [12]: fault arrivals are Poisson per type with
// field-study rates, two faults threaten a codeword only if their spans
// intersect geometrically in the same rank (different devices), and ARCC's
// exposure window for an undetected second fault is one scrub interval.
// Closed-form expected-count models are validated by Monte Carlo (as in the
// paper).
package reliability

import (
	"fmt"

	"arcc/internal/faultmodel"
)

// RankGeom describes the address space of one rank for overlap purposes.
type RankGeom struct {
	Devices int // devices per rank (symbols per codeword)
	Banks   int
	Rows    int
	Cols    int // line-columns per row
}

func (g RankGeom) validate() {
	if g.Devices <= 1 || g.Banks <= 0 || g.Rows <= 0 || g.Cols <= 0 {
		panic(fmt.Sprintf("reliability: invalid rank geometry %+v", g))
	}
}

// OverlapProb returns the probability that two independent faults of types
// a and b, placed uniformly within the SAME rank, cover at least one common
// (bank, row, column) line address — the condition for both to corrupt the
// same codeword. Device placement is handled separately (the pair must also
// sit in different devices to corrupt two symbols).
//
// Span model per type: Device covers every address; Bank covers one bank;
// Row covers (bank, row, *); Column covers (bank, *, col); Word and Bit
// cover a single (bank, row, col).
func (g RankGeom) OverlapProb(a, b faultmodel.Type) float64 {
	g.validate()
	// Lane faults electrically corrupt the device position in every rank
	// and address, so they overlap everything.
	if a == faultmodel.Lane || b == faultmodel.Lane {
		return 1
	}
	// Normalize: probability = product over the three coordinates of the
	// probability that the types' spans agree on that coordinate.
	pBank := 1.0
	if constrainsBank(a) && constrainsBank(b) {
		pBank = 1 / float64(g.Banks)
	}
	pRow := 1.0
	if constrainsRow(a) && constrainsRow(b) {
		pRow = 1 / float64(g.Rows)
	}
	pCol := 1.0
	if constrainsCol(a) && constrainsCol(b) {
		pCol = 1 / float64(g.Cols)
	}
	return pBank * pRow * pCol
}

// constrainsBank reports whether the fault type is confined to one bank.
func constrainsBank(t faultmodel.Type) bool { return t != faultmodel.Device }

// constrainsRow reports whether the fault type is confined to one row.
func constrainsRow(t faultmodel.Type) bool {
	return t == faultmodel.Row || t == faultmodel.Word || t == faultmodel.Bit
}

// constrainsCol reports whether the fault type is confined to one column.
func constrainsCol(t faultmodel.Type) bool {
	return t == faultmodel.Column || t == faultmodel.Word || t == faultmodel.Bit
}

// PairThreatProb returns the probability that two independent faults of
// types a and b anywhere in a channel of ranks ranks corrupt a common
// codeword: same rank (unless a lane fault is involved), different
// devices, spans intersecting.
func (g RankGeom) PairThreatProb(a, b faultmodel.Type, ranks int) float64 {
	if ranks <= 0 {
		panic("reliability: non-positive rank count")
	}
	diffDev := float64(g.Devices-1) / float64(g.Devices)
	if a == faultmodel.Lane || b == faultmodel.Lane {
		// The lane hits every rank; only device disjointness matters.
		return diffDev
	}
	return (1 / float64(ranks)) * diffDev * g.OverlapProb(a, b)
}
