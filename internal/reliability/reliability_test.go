package reliability

import (
	"context"
	"math"
	"testing"

	"arcc/internal/faultmodel"
	"arcc/internal/mc"
	"arcc/internal/rng"
)

// relaxedRankGeom matches the evaluated DDR2 ranks of a relaxed page: 18
// devices, 8 banks, 16K rows, 64 line-columns per row.
var relaxedRankGeom = RankGeom{Devices: 18, Banks: 8, Rows: 16384, Cols: 64}

func TestOverlapProbBasics(t *testing.T) {
	g := relaxedRankGeom
	cases := []struct {
		a, b faultmodel.Type
		want float64
	}{
		{faultmodel.Device, faultmodel.Device, 1},
		{faultmodel.Device, faultmodel.Row, 1},
		{faultmodel.Bank, faultmodel.Bank, 1.0 / 8},
		{faultmodel.Bank, faultmodel.Row, 1.0 / 8},
		{faultmodel.Row, faultmodel.Row, 1.0 / (8 * 16384)},
		{faultmodel.Row, faultmodel.Column, 1.0 / 8},
		{faultmodel.Column, faultmodel.Column, 1.0 / (8 * 64)},
		{faultmodel.Bit, faultmodel.Bit, 1.0 / (8 * 16384 * 64)},
		{faultmodel.Lane, faultmodel.Bit, 1},
	}
	for _, tc := range cases {
		if got := g.OverlapProb(tc.a, tc.b); math.Abs(got-tc.want) > 1e-15 {
			t.Errorf("OverlapProb(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
		if got1, got2 := g.OverlapProb(tc.a, tc.b), g.OverlapProb(tc.b, tc.a); got1 != got2 {
			t.Errorf("OverlapProb not symmetric for (%v, %v)", tc.a, tc.b)
		}
	}
}

func TestOverlapProbBounds(t *testing.T) {
	g := relaxedRankGeom
	for _, a := range faultmodel.Types() {
		for _, b := range faultmodel.Types() {
			p := g.OverlapProb(a, b)
			if p <= 0 || p > 1 {
				t.Fatalf("OverlapProb(%v, %v) = %v outside (0, 1]", a, b, p)
			}
		}
	}
}

func TestPairThreatProb(t *testing.T) {
	g := relaxedRankGeom
	// Device-device in a 2-rank channel: same rank (1/2) x different
	// device (17/18) x overlap (1).
	got := g.PairThreatProb(faultmodel.Device, faultmodel.Device, 2)
	want := 0.5 * 17.0 / 18
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("PairThreatProb = %v, want %v", got, want)
	}
	// Lane pairs skip the same-rank factor.
	if g.PairThreatProb(faultmodel.Lane, faultmodel.Device, 2) != 17.0/18 {
		t.Fatal("lane threat probability wrong")
	}
}

func TestARCCDEDExpectedSDCsScalesQuadratically(t *testing.T) {
	p := DefaultParams()
	base := ARCCDEDExpectedSDCs(p)
	if base <= 0 {
		t.Fatal("expected SDC count must be positive")
	}
	p.Rates = p.Rates.Scale(4)
	quad := ARCCDEDExpectedSDCs(p)
	if math.Abs(quad/base-16) > 1e-6 {
		t.Fatalf("4x rates scaled SDCs by %vx, want 16x (two-fault race)", quad/base)
	}
}

func TestSCCDCDSDCsFarBelowARCCDED(t *testing.T) {
	// The price of ARCC: its DED window admits two-fault SDCs while
	// SCCDCD needs three faults. The absolute ARCC number must still be
	// tiny — that is the paper's Fig 6.1 claim.
	p := DefaultParams()
	arcc := SDCsPer1000MachineYears(ARCCDEDExpectedSDCs(p), p.LifeYears)
	sccdcd := SDCsPer1000MachineYears(SCCDCDExpectedSDCs(p), p.LifeYears)
	if sccdcd >= arcc {
		t.Fatalf("SCCDCD SDC rate %v not below ARCC DED %v", sccdcd, arcc)
	}
	if arcc > 0.01 {
		t.Fatalf("ARCC DED SDC rate %v per 1000 machine-years; should be insignificant (< 0.01)", arcc)
	}
}

func TestARCCDEDShrinksWithScrubInterval(t *testing.T) {
	p := DefaultParams()
	slow := ARCCDEDExpectedSDCs(p)
	p.ScrubHours = 1
	fast := ARCCDEDExpectedSDCs(p)
	if math.Abs(slow/fast-4) > 1e-9 {
		t.Fatalf("4x faster scrubbing should cut the SDC window 4x, got %vx", slow/fast)
	}
}

func TestMonteCarloValidatesAnalyticModel(t *testing.T) {
	// At heavily inflated rates the event-level Monte Carlo must agree
	// with the closed-form expectation within sampling error. This is the
	// validation step the paper performs against its own models.
	p := DefaultParams()
	p.Rates = p.Rates.Scale(3000)
	p.LifeYears = 1
	want := ARCCDEDExpectedSDCs(p)
	const channels = 3000
	events, err := SimulateARCCDED(context.Background(), 42, mc.Options{}, p, channels)
	if err != nil {
		t.Fatal(err)
	}
	got := float64(events) / channels
	if want <= 0 {
		t.Fatal("analytic expectation not positive")
	}
	rel := math.Abs(got-want) / want
	if rel > 0.25 {
		t.Fatalf("Monte Carlo %v vs analytic %v: relative error %.0f%%", got, want, rel*100)
	}
}

func TestSDCsPer1000MachineYears(t *testing.T) {
	if got := SDCsPer1000MachineYears(0.007, 7); math.Abs(got-1) > 1e-12 {
		t.Fatalf("conversion wrong: %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on zero lifespan")
		}
	}()
	SDCsPer1000MachineYears(1, 0)
}

func TestFaultyPageFractionShape(t *testing.T) {
	// Fig 3.1: a few percent at most through year 7 at 1x rates, growing
	// with time and with the rate factor.
	shape := faultmodel.ARCCChannelShape()
	f1 := mustFaulty(t, testSpec(1, mc.Options{}, faultmodel.FieldStudyRates(), 36, 7, 4000), shape).Mean
	if len(f1) != 7 {
		t.Fatalf("got %d years", len(f1))
	}
	for y := 1; y < 7; y++ {
		if f1[y] < f1[y-1] {
			t.Fatalf("faulty fraction not monotone: year %d %v < year %d %v", y+1, f1[y], y, f1[y-1])
		}
	}
	if f1[6] <= 0 || f1[6] > 0.10 {
		t.Fatalf("year-7 faulty fraction %v, want (0, 0.10] — 'just a few percent'", f1[6])
	}
	f4 := mustFaulty(t, testSpec(2, mc.Options{}, faultmodel.FieldStudyRates().Scale(4), 36, 7, 4000), shape).Mean
	if f4[6] <= f1[6] {
		t.Fatal("4x rates must raise the faulty fraction")
	}
	if f4[6] > 0.25 {
		t.Fatalf("4x year-7 fraction %v implausibly high", f4[6])
	}
}

func TestLifetimeOverheadShape(t *testing.T) {
	// Fig 7.4's worst-case estimate: small (a few percent), growing with
	// years, and bounded by the cap.
	shape := faultmodel.ARCCChannelShape()
	ov := WorstCaseOverheads(shape, 2) // power doubles on upgraded pages
	got := mustOverhead(t, testSpec(2, mc.Options{}, faultmodel.FieldStudyRates(), 36, 7, 4000), ov, 1.0).Mean
	for y := 1; y < 7; y++ {
		if got[y] < got[y-1]-1e-12 {
			t.Fatalf("lifetime overhead not monotone at year %d: %v < %v", y+1, got[y], got[y-1])
		}
	}
	if got[6] <= 0 || got[6] > 0.05 {
		t.Fatalf("year-7 worst-case overhead %v, want (0, 5%%]", got[6])
	}
}

func TestLifetimeOverheadRespectsCap(t *testing.T) {
	ov := OverheadByType{faultmodel.Device: 10} // absurd per-fault overhead
	spec := testSpec(3, mc.Options{}, faultmodel.FieldStudyRates().Scale(1000), 36, 3, 200)
	for _, cap := range []float64{0.5, 0} {
		for _, v := range mustOverhead(t, spec, ov, cap).Mean {
			if v > cap+1e-9 || v < 0 {
				t.Fatalf("overhead %v outside [0, cap %v]", v, cap)
			}
		}
	}
	// A free upgrade (cap 0) costs nothing, with or without CI.
	spec.CI = true
	if got := mustOverhead(t, spec, ov, 0); got.Mean[2] != 0 || got.CI95[2] != 0 {
		t.Fatalf("zero-cap overhead %v ± %v, want exactly 0", got.Mean[2], got.CI95[2])
	}
}

// TestSeriesWritersFillEveryYear pins what lets the WeightedSet path skip
// clearing a trial's observation vector: faultyPageSeries and
// overheadSeries write every year slot and never read one. Over empty,
// single-fault and many-fault histories, and horizons shorter than the
// sampled lifespan, a buffer full of NaN comes out with no NaN left and
// bit for bit what a zeroed buffer does, which is what the per-trial
// reference writer (refWrite) writes.
func TestSeriesWritersFillEveryYear(t *testing.T) {
	shape := faultmodel.ARCCChannelShape()
	var m [2]metric
	m[1] = metric{overhead: true, cap: 0.5}
	for _, typ := range faultmodel.Types() {
		m[0].perType[typ] = shape.UpgradedFraction(typ)
		m[1].perType[typ] = 0.1
	}
	var src rng.Source
	src.Seed(5)
	rates := faultmodel.FieldStudyRates()
	histories := [][]faultmodel.Arrival{nil}
	for _, tilt := range []float64{1, 30, 3000} {
		sampler := faultmodel.NewTiltedSampler(rates, tilt, 2, 18, 7)
		for range 20 {
			arrivals, _ := sampler.SampleInto(&src, nil)
			histories = append(histories, arrivals)
		}
	}
	for _, arrivals := range histories {
		for _, years := range []int{1, 3, 7} {
			for _, mt := range m {
				// The burst-free run writes the series without drawing.
				r := &lifetimeRun{metric: mt, ends: yearEnds(years)}
				zeroed := make([]float64, years)
				r.series(nil, &arrivalScratch{series: zeroed}, arrivals)
				filled := make([]float64, years)
				for i := range filled {
					filled[i] = math.NaN()
				}
				r.series(nil, &arrivalScratch{series: filled}, arrivals)
				ref := make([]float64, years)
				mt.refWrite(arrivals, years, ref)
				for i, v := range filled {
					if math.Float64bits(v) != math.Float64bits(zeroed[i]) || math.Float64bits(v) != math.Float64bits(ref[i]) {
						t.Fatalf("overhead=%v, %d arrivals, %d years: year %d reads %v from a NaN buffer, %v from a zeroed one, %v from the reference",
							mt.overhead, len(arrivals), years, i+1, v, zeroed[i], ref[i])
					}
				}
			}
		}
	}
}

func TestLifetimeRejectsInvalidSpec(t *testing.T) {
	shape := faultmodel.ARCCChannelShape()
	ov := WorstCaseOverheads(shape, 2)
	good := testSpec(5, mc.Options{}, faultmodel.FieldStudyRates(), 36, 1, 1)
	noYears, noChannels := good, good
	noYears.Years = 0
	noChannels.Channels = -1
	badTilt := good
	badTilt.Accel = Accel{Mode: AccelTilted}
	ctx := context.Background()
	for name, run := range map[string]func() (*SeriesStats, error){
		"faulty years":      func() (*SeriesStats, error) { return FaultyPageFraction(ctx, noYears, shape) },
		"faulty channels":   func() (*SeriesStats, error) { return FaultyPageFraction(ctx, noChannels, shape) },
		"faulty tilt":       func() (*SeriesStats, error) { return FaultyPageFraction(ctx, badTilt, shape) },
		"overhead years":    func() (*SeriesStats, error) { return LifetimeOverhead(ctx, noYears, ov, 1) },
		"overhead channels": func() (*SeriesStats, error) { return LifetimeOverhead(ctx, noChannels, ov, 1) },
		"negative cap":      func() (*SeriesStats, error) { return LifetimeOverhead(ctx, good, ov, -1) },
		"NaN cap":           func() (*SeriesStats, error) { return LifetimeOverhead(ctx, good, ov, math.NaN()) },
	} {
		if out, err := run(); err == nil || out != nil {
			t.Errorf("%s: got (%v, %v), want an error", name, out, err)
		}
	}
}

func TestWorstCaseOverheads(t *testing.T) {
	shape := faultmodel.ARCCChannelShape()
	ov := WorstCaseOverheads(shape, 2)
	if ov[faultmodel.Lane] != 1.0 || ov[faultmodel.Device] != 0.5 {
		t.Fatalf("worst-case overheads %v", ov)
	}
	if _, ok := ov[faultmodel.Bit]; ok {
		t.Fatal("transient-scale types must be excluded")
	}
	// Fig 7.6: LOT-ECC worst case is factor 4.
	lot := WorstCaseOverheads(shape, 4)
	if lot[faultmodel.Lane] != 3.0 {
		t.Fatalf("LOT-ECC lane overhead %v, want 3", lot[faultmodel.Lane])
	}
}

func TestARCCLOTECCLifetimeOverheadMatchesPaperMagnitude(t *testing.T) {
	// Fig 7.6: ~1.6% average overhead over 7 years at 1x rates, no more
	// than ~6.3% at 4x. Generous bands around those anchors.
	shape := faultmodel.ARCCChannelShape()
	ov := WorstCaseOverheads(shape, 4)
	at1 := mustOverhead(t, testSpec(4, mc.Options{}, faultmodel.FieldStudyRates(), 18, 7, 6000), ov, 3.0).Mean
	at4 := mustOverhead(t, testSpec(5, mc.Options{}, faultmodel.FieldStudyRates().Scale(4), 18, 7, 6000), ov, 3.0).Mean
	if at1[6] <= 0.001 || at1[6] > 0.05 {
		t.Fatalf("1x 7-year overhead %v, want around the paper's 1.6%%", at1[6])
	}
	if at4[6] <= at1[6] || at4[6] > 0.15 {
		t.Fatalf("4x 7-year overhead %v, want larger than 1x but bounded (~6%%)", at4[6])
	}
}

func TestPanicsOnBadArguments(t *testing.T) {
	shape := faultmodel.ARCCChannelShape()
	for name, f := range map[string]func(){
		"bad geom":      func() { RankGeom{}.OverlapProb(faultmodel.Bit, faultmodel.Bit) },
		"bad ranks":     func() { relaxedRankGeom.PairThreatProb(faultmodel.Bit, faultmodel.Bit, 0) },
		"bad params":    func() { ARCCDEDExpectedSDCs(Params{}) },
		"bad channels":  func() { SimulateARCCDED(context.Background(), 5, mc.Options{}, DefaultParams(), 0) },
		"worst-case <1": func() { WorstCaseOverheads(shape, 0.5) },
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
