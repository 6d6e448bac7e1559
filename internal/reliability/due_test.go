package reliability

import "testing"

func TestSCCDCDDUEsPositiveAndGrowWithLife(t *testing.T) {
	p := DefaultParams()
	d7 := SCCDCDExpectedDUEs(p)
	if d7 <= 0 {
		t.Fatal("DUE expectation must be positive")
	}
	p.LifeYears = 3.5
	d35 := SCCDCDExpectedDUEs(p)
	// Quadratic in lifetime (accumulating first fault): 2x life -> 4x DUEs.
	if ratio := d7 / d35; ratio < 3.9 || ratio > 4.1 {
		t.Fatalf("lifetime scaling %v, want ~4 (quadratic)", ratio)
	}
}

func TestSparingDUEsFarBelowSCCDCD(t *testing.T) {
	p := DefaultParams()
	sccdcd, sparing := SCCDCDExpectedDUEs(p), SparingExpectedDUEs(p)
	if sparing >= sccdcd {
		t.Fatal("sparing must reduce the DUE rate")
	}
	factor := sccdcd / sparing
	// The paper cites a 17x field-measured reduction; the pure race model
	// is far more optimistic. Require at least an order of magnitude.
	if factor < 17 {
		t.Fatalf("sparing DUE reduction %vx, want >= 17x", factor)
	}
}

func TestARCCDoesNotDegradeDUERate(t *testing.T) {
	// §6.1: ARCC's DUE rate is bounded by the scheme it is applied to.
	p := DefaultParams()
	if got, base := ARCCExpectedDUEs(p), SCCDCDExpectedDUEs(p); got > base {
		t.Fatalf("ARCC DUE rate %v exceeds SCCDCD %v", got, base)
	}
	// And it differs only by the (tiny) SDC conversion.
	diff := SCCDCDExpectedDUEs(p) - ARCCExpectedDUEs(p)
	sdc := ARCCDEDExpectedSDCs(p)
	if rel := (diff - sdc) / sdc; rel > 1e-6 || rel < -1e-6 {
		t.Fatalf("DUE deficit %v should equal the SDC rate %v", diff, sdc)
	}
}

func TestDUERatesScaleQuadraticallyWithFaultRate(t *testing.T) {
	p := DefaultParams()
	base := SparingExpectedDUEs(p)
	p.Rates = p.Rates.Scale(2)
	if ratio := SparingExpectedDUEs(p) / base; ratio < 3.99 || ratio > 4.01 {
		t.Fatalf("2x rates scaled sparing DUEs by %v, want 4 (pair process)", ratio)
	}
}
