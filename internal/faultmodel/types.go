// Package faultmodel provides the DRAM fault taxonomy, field-study fault
// rates, and fault-arrival sampling that drive every lifetime experiment in
// the repository (Figs. 3.1, 6.1, 7.4, 7.5, 7.6).
//
// The taxonomy and rates follow the large-scale field study of Sridharan &
// Liberty ("A study of DRAM failures in the field", SC'12) that the paper
// takes its inputs from: per-device FIT rates for single-bit, single-word,
// single-column, single-row, single-bank, whole-device, and lane faults.
// Absolute calibration is not the goal — the experiments depend on the
// relative frequencies (bit faults dominate; device and lane faults are
// rare) and the overall magnitude (a few percent of DIMMs fault per year).
package faultmodel

import "fmt"

// Type classifies a device-level fault by the circuitry it takes out.
type Type int

const (
	// Bit is a single-cell fault.
	Bit Type = iota
	// Word is a fault affecting one memory word (one line's symbols).
	Word
	// Column is a faulty column (one column of one bank).
	Column
	// Row is a faulty row (one row of one bank).
	Row
	// Bank is a faulty bank (the paper's Table 7.4 calls the resulting
	// upgrade span "subbank" because one bank is 1/8 of a device).
	Bank
	// Device is a whole-device (chipkill) fault.
	Device
	// Lane is a faulty data lane (DQ pin group) shared by all ranks of a
	// channel: every rank behind the lane is affected.
	Lane

	// NumTypes is the number of fault types, for tables indexed by Type.
	NumTypes
)

// Types lists all fault types in rate-table order.
func Types() []Type {
	return []Type{Bit, Word, Column, Row, Bank, Device, Lane}
}

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case Bit:
		return "bit"
	case Word:
		return "word"
	case Column:
		return "column"
	case Row:
		return "row"
	case Bank:
		return "bank"
	case Device:
		return "device"
	case Lane:
		return "lane"
	}
	return fmt.Sprintf("Type(%d)", int(t))
}

// IsTransientScale reports whether the fault's span is so small (a page or
// two) that its power/performance overhead after upgrade is negligible; the
// lifetime overhead experiments (Fig 7.4/7.5) track only the larger spans,
// exactly as Table 7.4 does.
func (t Type) IsTransientScale() bool {
	return t == Bit || t == Word || t == Row
}
