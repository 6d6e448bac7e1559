package faultmodel

import "fmt"

// Rates maps fault types to FIT rates per device (failures per 10^9
// device-hours).
type Rates map[Type]float64

// FieldStudyRates returns the DDR2 per-device fault rates transcribed from
// the Sridharan & Liberty SC'12 field study (the paper's input [2]): bit
// faults dominate, bank/row/column faults are the bulk of the large-span
// population, and whole-device and lane faults are comparatively rare.
func FieldStudyRates() Rates {
	return Rates{
		Bit:    33.05,
		Word:   1.11,
		Column: 5.22,
		Row:    8.81,
		Bank:   11.22,
		Device: 2.87,
		Lane:   1.50,
	}
}

// Scale returns a copy of r with every rate multiplied by factor. The
// paper's sensitivity sweeps use factors 1, 2 and 4 ("up to 4X the fault
// rate reported in [2]").
func (r Rates) Scale(factor float64) Rates {
	if factor < 0 {
		panic(fmt.Sprintf("faultmodel: negative rate factor %v", factor))
	}
	out := make(Rates, len(r))
	for t, v := range r {
		out[t] = v * factor
	}
	return out
}

// HoursPerYear is the average number of hours in a year (365.25 days).
const HoursPerYear = 8766.0
