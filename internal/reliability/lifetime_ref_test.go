package reliability

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"testing"

	"arcc/internal/faultmodel"
	"arcc/internal/mc"
	"arcc/internal/rng"
)

// The per-trial formulation of the lifetime Monte Carlo that Spec.run's
// shard loops replaced, kept as the reference they must match bit for
// bit: the engine's shard calls one trial closure per trial, which
// expands the history through a second closure and writes the series
// through the metric, recomputing the hour each year ends in every
// trial.

// refFaultyPageSeries is faultyPageSeries with each year's end hour
// computed in the loop.
func refFaultyPageSeries(arrivals []faultmodel.Arrival, frac *[faultmodel.NumTypes]float64, years int, series []float64) {
	idx := 0
	total := 0.0
	for y := 1; y <= years; y++ {
		limit := float64(y) * faultmodel.HoursPerYear
		for idx < len(arrivals) && arrivals[idx].AtHours <= limit {
			total += frac[arrivals[idx].Type]
			idx++
		}
		if total > 1 {
			series[y-1] = 1
		} else {
			series[y-1] = total
		}
	}
}

// refOverheadSeries is overheadSeries with each year's end hour computed
// in the loop.
func refOverheadSeries(arrivals []faultmodel.Arrival, overhead *[faultmodel.NumTypes]float64, cap float64, years int, series []float64) {
	integrated := 0.0
	current := 0.0
	lastT := 0.0
	idx := 0
	for y := 1; y <= years; y++ {
		limit := float64(y) * faultmodel.HoursPerYear
		for idx < len(arrivals) && arrivals[idx].AtHours <= limit {
			arr := arrivals[idx]
			integrated += current * (arr.AtHours - lastT)
			lastT = arr.AtHours
			current += overhead[arr.Type]
			if current > cap {
				current = cap
			}
			idx++
		}
		integrated += current * (limit - lastT)
		lastT = limit
		series[y-1] = integrated / limit
	}
}

// refWrite writes one channel's series of m into series (len == years).
func (m *metric) refWrite(arrivals []faultmodel.Arrival, years int, series []float64) {
	if m.overhead {
		refOverheadSeries(arrivals, &m.perType, m.cap, years, series)
	} else {
		refFaultyPageSeries(arrivals, &m.perType, years, series)
	}
}

// refRun is Spec.run in the per-trial formulation.
func refRun(ctx context.Context, s Spec, m metric) (*SeriesStats, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	years := float64(s.Years)
	tiltHint := s.Burst.CapHintFactor()
	if s.Accel.Mode == AccelTilted {
		tiltHint *= s.Accel.Tilt
	}
	newScratch := newArrivalScratch(s.Rates, s.Ranks, s.DevicesPerRank, years, tiltHint)
	var sampler *faultmodel.Sampler
	switch s.Accel.Mode {
	case AccelConditional:
		sampler = faultmodel.NewConditionalSampler(s.Rates, s.Ranks, s.DevicesPerRank, years)
	case AccelTilted:
		sampler = faultmodel.NewTiltedSampler(s.Rates, s.Accel.Tilt, s.Ranks, s.DevicesPerRank, years)
	default:
		sampler = faultmodel.NewSampler(s.Rates, s.Ranks, s.DevicesPerRank, years)
	}
	bursts := !s.Burst.IsZero()
	finish := func(src *rng.Source, scratch *arrivalScratch, arrivals []faultmodel.Arrival, vals []float64) {
		if bursts {
			arrivals = s.Burst.ExpandInto(src, arrivals)
		}
		scratch.buf = arrivals
		m.refWrite(arrivals, s.Years, vals)
	}

	if !s.CI && s.Accel.Mode == AccelNone {
		trial := func(src *rng.Source, a mc.Accumulator, sc any) {
			scratch := sc.(*arrivalScratch)
			arrivals, _ := sampler.SampleInto(src, scratch.buf)
			if len(arrivals) == 0 {
				return
			}
			finish(src, scratch, arrivals, scratch.series)
			sums := a.(*yearSums).sums
			for i, v := range scratch.series {
				sums[i] += v
			}
		}
		acc, err := mc.RunCtx(ctx, mc.Job{
			Trials:     s.Channels,
			Seed:       s.Seed,
			NewAcc:     newYearSums(s.Years),
			NewScratch: newScratch,
			Shard: func(src *rng.Source, lo, hi int, a mc.Accumulator, sc any) {
				for range hi - lo {
					trial(src, a, sc)
				}
			},
		}, s.Opts)
		if err != nil {
			return nil, err
		}
		sums := acc.(*yearSums).sums
		for i := range sums {
			sums[i] /= float64(s.Channels)
		}
		return &SeriesStats{Mean: sums, Trials: s.Channels}, nil
	}

	trial := func(src *rng.Source, sc any, vals []float64) float64 {
		scratch := sc.(*arrivalScratch)
		arrivals, w := sampler.SampleInto(src, scratch.buf)
		finish(src, scratch, arrivals, vals)
		return w
	}
	var sketch []int
	if m.overhead && s.Accel.Mode == AccelNone {
		sketch = []int{s.Years - 1}
	}
	acc, err := mc.RunCtx(ctx, mc.Job{
		Trials:     s.Channels,
		Seed:       s.Seed,
		NewAcc:     func() mc.Accumulator { return mc.NewWeightedSet(s.Years, sketch...) },
		NewScratch: newScratch,
		Shard: func(src *rng.Source, lo, hi int, a mc.Accumulator, sc any) {
			set, vals := a.(*mc.WeightedSet), sc.(*arrivalScratch).series
			for range hi - lo {
				set.Add(vals, trial(src, sc, vals))
			}
		},
	}, s.Opts)
	if err != nil {
		return nil, err
	}
	set := acc.(*mc.WeightedSet)
	out := &SeriesStats{
		Mean:        make([]float64, s.Years),
		CI95:        make([]float64, s.Years),
		ESS:         set.Dim(s.Years - 1).ESS(),
		Trials:      s.Channels,
		Accel:       s.Accel,
		FinalSketch: set.Sketch(s.Years - 1),
	}
	for i := range out.Mean {
		out.Mean[i] = set.Dim(i).Mean()
		out.CI95[i] = set.Dim(i).CI95()
	}
	return out, nil
}

// TestShardLoopMatchesPerTrialReference: both lifetime metrics, run
// through the shard loops with each run's year ends computed once, equal
// the per-trial reference bit for bit — every year's Mean and CI95, the
// ESS and the final-year sketch — under plain sampling with and without
// CI, conditional and tilted sampling, and a burst model, at any
// parallelism.
func TestShardLoopMatchesPerTrialReference(t *testing.T) {
	shape := faultmodel.ARCCChannelShape()
	faulty := metric{}
	for _, typ := range faultmodel.Types() {
		faulty.perType[typ] = shape.UpgradedFraction(typ)
	}
	overhead := metric{overhead: true, cap: 1}
	for typ, v := range WorstCaseOverheads(shape, 2) {
		overhead.perType[typ] = v
	}
	burst := faultmodel.Burst{RowProb: 0.8, RowMean: 6, RowMax: 24, BankProb: 0.5, BankMean: 4, BankMax: 16}
	base := testSpec(21, mc.Options{}, faultmodel.FieldStudyRates().Scale(4), 36, 6, 900)
	specs := map[string]func(*Spec){
		"plain":       func(*Spec) {},
		"plain CI":    func(s *Spec) { s.CI = true },
		"conditional": func(s *Spec) { s.Accel = Accel{Mode: AccelConditional} },
		"tilted":      func(s *Spec) { s.Accel = Accel{Mode: AccelTilted, Tilt: 8} },
		"burst":       func(s *Spec) { s.Burst = burst },
		"burst CI":    func(s *Spec) { s.Burst, s.CI = burst, true },
	}
	bits := math.Float64bits
	for name, edit := range specs {
		for _, m := range []metric{faulty, overhead} {
			for _, par := range []int{1, 4, runtime.NumCPU()} {
				s := base
				s.Opts.Parallelism = par
				edit(&s)
				got, err := s.run(context.Background(), m)
				if err != nil {
					t.Fatal(err)
				}
				want, err := refRun(context.Background(), s, m)
				if err != nil {
					t.Fatal(err)
				}
				what := func() string {
					if m.overhead {
						return name + " overhead"
					}
					return name + " faulty pages"
				}()
				if len(got.Mean) != len(want.Mean) || len(got.CI95) != len(want.CI95) {
					t.Fatalf("%s, parallelism %d: %d means and %d CIs, want %d and %d", what, par, len(got.Mean), len(got.CI95), len(want.Mean), len(want.CI95))
				}
				for y := range want.Mean {
					if bits(got.Mean[y]) != bits(want.Mean[y]) {
						t.Fatalf("%s, parallelism %d, year %d: mean %v, reference %v", what, par, y+1, got.Mean[y], want.Mean[y])
					}
				}
				for y := range want.CI95 {
					if bits(got.CI95[y]) != bits(want.CI95[y]) {
						t.Fatalf("%s, parallelism %d, year %d: CI95 %v, reference %v", what, par, y+1, got.CI95[y], want.CI95[y])
					}
				}
				if bits(got.ESS) != bits(want.ESS) || got.Trials != want.Trials || got.Accel != want.Accel {
					t.Fatalf("%s, parallelism %d: ESS %v, trials %d, accel %v; reference %v, %d, %v", what, par, got.ESS, got.Trials, got.Accel, want.ESS, want.Trials, want.Accel)
				}
				if want.Mean[len(want.Mean)-1] <= 0 {
					t.Fatalf("%s: degenerate final-year mean %v", what, want.Mean[len(want.Mean)-1])
				}
				if sketched := m.overhead && s.CI && s.Accel.Mode == AccelNone; sketched != (want.FinalSketch != nil) {
					t.Fatalf("%s: final-year sketch %v, want one: %v", what, want.FinalSketch != nil, sketched)
				}
				if !reflect.DeepEqual(got.FinalSketch, want.FinalSketch) {
					t.Fatalf("%s, parallelism %d: final-year sketch differs from the reference", what, par)
				}
			}
		}
	}
}
