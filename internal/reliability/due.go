package reliability

import "arcc/internal/faultmodel"

// This file models the DUE (detectable uncorrectable error) rates of §6.1.
// The paper's claim is qualitative: ARCC does not degrade the DUE rate of
// the scheme it is applied to, because relaxed mode still corrects a single
// bad symbol, and double chip sparing only ever corrects a second fault
// that arrives after the first was detected — with or without ARCC.
//
// The models below quantify the claim:
//
//   - SCCDCD (correct 1): a DUE needs two faults threatening one codeword;
//     the first persists for the machine's life (single-symbol errors are
//     corrected in place, not serviced), so the pair rate integrates the
//     accumulated first fault — the hours^2/2 factor.
//   - Double chip sparing (correct 2, sequentially): a DUE needs the second
//     threat fault to arrive before the first is detected and spared (one
//     scrub interval), or a third simultaneous fault; the window term
//     dominates.
//   - ARCC applied to either: the same events, minus the tiny share whose
//     detection also fails (those become the SDCs of Fig 6.1), so the DUE
//     rate can only drop.

// SCCDCDExpectedDUEs returns the expected DUE events per machine lifetime
// for commercial SCCDCD (single correct, double detect).
func SCCDCDExpectedDUEs(p Params) float64 {
	p.validate()
	hours := p.LifeYears * faultmodel.HoursPerYear
	var sum float64
	for _, a := range faultmodel.Types() {
		ra := p.arrivalRatePerHour(a)
		if ra == 0 {
			continue
		}
		for _, b := range faultmodel.Types() {
			rb := p.arrivalRatePerHour(b)
			if rb == 0 {
				continue
			}
			threat := p.Geom.PairThreatProb(a, b, p.RanksPerChannel)
			// First fault accumulates: integral of ra*t*rb over [0, T].
			sum += ra * rb * hours * hours / 2 * threat
		}
	}
	return sum
}

// SparingExpectedDUEs returns the expected DUE events per machine lifetime
// for double chip sparing: the second fault must beat the scrub that would
// have spared the first.
func SparingExpectedDUEs(p Params) float64 {
	p.validate()
	hours := p.LifeYears * faultmodel.HoursPerYear
	var sum float64
	for _, a := range faultmodel.Types() {
		ra := p.arrivalRatePerHour(a)
		if ra == 0 {
			continue
		}
		for _, b := range faultmodel.Types() {
			rb := p.arrivalRatePerHour(b)
			if rb == 0 {
				continue
			}
			threat := p.Geom.PairThreatProb(a, b, p.RanksPerChannel)
			sum += (ra * hours) * (rb * p.ScrubHours / 2) * threat
		}
	}
	return sum
}

// ARCCExpectedDUEs returns the DUE rate of SCCDCD+ARCC: identical events to
// plain SCCDCD except for the pairs that also defeat detection (the ARCC
// DED SDCs), which are subtracted — they corrupt silently instead of
// trapping. The §6.1 statement "ARCC does not degrade the DUE rate" is the
// inequality ARCCExpectedDUEs <= SCCDCDExpectedDUEs.
func ARCCExpectedDUEs(p Params) float64 {
	due := SCCDCDExpectedDUEs(p) - ARCCDEDExpectedSDCs(p)
	if due < 0 {
		return 0
	}
	return due
}
