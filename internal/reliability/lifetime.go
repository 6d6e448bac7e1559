package reliability

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"

	"arcc/internal/faultmodel"
	"arcc/internal/mc"
	"arcc/internal/rng"
)

// yearSums accumulates per-year sums over the Monte Carlo channels of one
// shard; Merge adds element-wise, so the shard-ordered fold of the engine
// reproduces a serial summation bit for bit.
type yearSums struct {
	sums []float64
}

func newYearSums(years int) func() mc.Accumulator {
	return func() mc.Accumulator { return &yearSums{sums: make([]float64, years)} }
}

func (a *yearSums) Merge(other mc.Accumulator) {
	o := other.(*yearSums)
	for i, v := range o.sums {
		a.sums[i] += v
	}
}

// MarshalBinary makes the lifetime Monte Carlos checkpointable (see
// mc.CheckpointConfig): the per-year sums are stored as raw IEEE-754
// bits, so the round trip is exact and a resumed sweep reproduces an
// uninterrupted one bit for bit.
func (a *yearSums) MarshalBinary() ([]byte, error) {
	out := make([]byte, 8*len(a.sums))
	for i, v := range a.sums {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out, nil
}

// UnmarshalBinary restores a shard's per-year sums from MarshalBinary
// bytes. The accumulator must have been created for the same year count.
func (a *yearSums) UnmarshalBinary(b []byte) error {
	if len(b) != 8*len(a.sums) {
		return fmt.Errorf("reliability: year-sums snapshot holds %d bytes, want %d", len(b), 8*len(a.sums))
	}
	for i := range a.sums {
		a.sums[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return nil
}

// arrivalScratch is the per-worker workspace of the lifetime Monte
// Carlos: one fault-arrival buffer plus one per-year series buffer, which
// a weighted run also adds to its WeightedSet as the trial's
// observations, reused by every trial of every shard the worker runs.
// Both only carry capacity between trials — Sampler.SampleInto
// overwrites the arrival buffer from scratch and the series writers
// overwrite every year slot — so reuse cannot leak state across trials.
type arrivalScratch struct {
	buf    []faultmodel.Arrival
	series []float64
}

// newArrivalScratch sizes the per-worker buffers for the channel geometry so
// the steady state samples without reallocating. tiltHint scales the
// arrival capacity for rate-tilted sampling (1 for plain sampling).
func newArrivalScratch(rates faultmodel.Rates, ranks, devicesPerRank int, years float64, tiltHint float64) func() any {
	hint := faultmodel.ArrivalCapHint(rates, ranks, devicesPerRank, years)
	if tiltHint > 1 {
		hint = int(float64(hint) * tiltHint)
	}
	yearBuf := int(years)
	return func() any {
		return &arrivalScratch{
			buf:    make([]faultmodel.Arrival, 0, hint),
			series: make([]float64, yearBuf),
		}
	}
}

// yearEnds returns the hour each of years years ends: ends[y] is
// (y+1)·HoursPerYear, the product the series writers compare arrival
// times against, computed once per run instead of once per trial.
func yearEnds(years int) []float64 {
	ends := make([]float64, years)
	for y := range ends {
		ends[y] = float64(y+1) * faultmodel.HoursPerYear
	}
	return ends
}

// faultyPageSeries writes one channel's per-year faulty-page fraction
// into series (len == len(ends)): the union bound over the faults that
// have arrived by the end of each year, capped at 1. Fault spans are
// large and disjointness dominates at these counts, so the cap only
// binds for multi-fault channels with lane faults. frac holds each
// type's ChannelShape.UpgradedFraction, computed once per run, and ends
// the yearEnds of the run.
func faultyPageSeries(arrivals []faultmodel.Arrival, frac *[faultmodel.NumTypes]float64, ends, series []float64) {
	series = series[:len(ends)]
	idx := 0
	total := 0.0
	for y, limit := range ends {
		for idx < len(arrivals) && arrivals[idx].AtHours <= limit {
			total += frac[arrivals[idx].Type]
			idx++
		}
		if total > 1 {
			series[y] = 1
		} else {
			series[y] = total
		}
	}
}

// overheadSeries writes one channel's per-year time-averaged overhead
// into series (len == len(ends)): the overhead step function — additive
// per fault from its arrival onward, capped at cap — integrated from
// power-on through the end of each year and divided by the elapsed
// hours. overhead tabulates the OverheadByType entries, 0 for a missing
// type: adding +0 to current (never -0) and re-testing the cap it already
// meets is the same as skipping the type. ends is the yearEnds of the
// run.
func overheadSeries(arrivals []faultmodel.Arrival, overhead *[faultmodel.NumTypes]float64, cap float64, ends, series []float64) {
	series = series[:len(ends)]
	integrated := 0.0 // overhead-hours accumulated so far
	current := 0.0
	lastT := 0.0
	idx := 0
	for y, limit := range ends {
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
		series[y] = integrated / limit
	}
}

// OverheadByType maps the large-span fault types to the overhead (power
// increase or performance decrease, as a fraction) a channel suffers once
// that fault's pages are upgraded — the per-fault measurements of
// Figs 7.2/7.3 feed in here.
type OverheadByType map[faultmodel.Type]float64

// Spec describes one lifetime Monte Carlo: the fault process and channel
// geometry it samples, how many channels over how many years, and how
// the trials are drawn and summarised. Channels are sharded across
// workers per Opts; the result is bit-identical at any parallelism for a
// given Seed.
type Spec struct {
	Seed int64
	Opts mc.Options
	// Rates is the per-device fault process of every channel.
	Rates faultmodel.Rates
	// Burst expands each sampled history with correlated faults before
	// the per-year series is evaluated. The zero value consumes no
	// randomness, so it reproduces a burst-free run bit for bit.
	Burst                 faultmodel.Burst
	Ranks, DevicesPerRank int
	Years, Channels       int
	// Accel selects the sampling proposal; the zero value is plain
	// sampling. Any other mode implies CI.
	Accel Accel
	// CI requests per-year 95% confidence intervals and the effective
	// sample size. Plain sampling without CI keeps bare per-year sums;
	// its Mean is bit-identical to the same Spec with CI set.
	CI bool
}

// FaultyPageFraction reproduces Fig 3.1: the average fraction of a
// channel's 4 KB pages that has been affected by at least one fault, as a
// function of operational lifespan, under the worst-case assumption that
// every location under faulty circuitry is corrupted. It returns one
// value per year 1..s.Years; a cancelled ctx returns mc.ErrCanceled
// within one shard boundary.
func FaultyPageFraction(ctx context.Context, s Spec, shape faultmodel.ChannelShape) (*SeriesStats, error) {
	var m metric
	for _, t := range faultmodel.Types() {
		m.perType[t] = shape.UpgradedFraction(t)
	}
	return s.run(ctx, m)
}

// LifetimeOverhead reproduces the Fig 7.4/7.5 methodology: each channel
// accumulates the overhead of every fault from its arrival time onward
// (additive per fault, capped at cap — the overhead of a fully-upgraded
// memory). For each year X it reports the overhead time-averaged from
// power-on through the end of year X, averaged over channels. A zero cap
// (a free upgrade) gives an all-zero series. Under plain sampling with CI
// the result also sketches the final year's per-channel distribution.
func LifetimeOverhead(ctx context.Context, s Spec, overhead OverheadByType, cap float64) (*SeriesStats, error) {
	if cap < 0 || math.IsNaN(cap) {
		return nil, fmt.Errorf("reliability: overhead cap %v must be non-negative", cap)
	}
	m := metric{overhead: true, cap: cap}
	for _, t := range faultmodel.Types() {
		m.perType[t] = overhead[t]
	}
	return s.run(ctx, m)
}

// metric selects the per-year series a lifetime Monte Carlo writes —
// faultyPageSeries, or overheadSeries when overhead is set — with its
// per-run inputs: each type's ChannelShape.UpgradedFraction or
// OverheadByType entry, and the overhead cap.
type metric struct {
	overhead bool
	perType  [faultmodel.NumTypes]float64
	cap      float64
}

// lifetimeRun is what every trial of one lifetime Monte Carlo shares,
// fixed once per run: the sampler of the accel's proposal, the burst
// model (validated, and whether it is the zero model decided, once per
// Spec), the metric and the yearEnds of the Spec's lifespan.
type lifetimeRun struct {
	metric
	sampler *faultmodel.Sampler
	burst   faultmodel.Burst
	bursts  bool
	ends    []float64
}

// series expands a sampled history under the burst model, keeps it as
// the scratch's arrival buffer, and writes its per-year series of the
// run's metric into the scratch's series buffer.
func (r *lifetimeRun) series(src *rng.Source, scratch *arrivalScratch, arrivals []faultmodel.Arrival) {
	if r.bursts {
		arrivals = r.burst.ExpandInto(src, arrivals)
	}
	scratch.buf = arrivals
	if r.overhead {
		overheadSeries(arrivals, &r.perType, r.cap, r.ends, scratch.series)
	} else {
		faultyPageSeries(arrivals, &r.perType, r.ends, scratch.series)
	}
}

func (s Spec) validate() error {
	if s.Years <= 0 || s.Channels <= 0 {
		return fmt.Errorf("reliability: lifetime Monte Carlo needs positive years and channels (years=%d channels=%d)", s.Years, s.Channels)
	}
	if err := s.Accel.Validate(); err != nil {
		return err
	}
	if err := s.Burst.Validate(); err != nil {
		return err
	}
	if s.Accel.Mode == AccelConditional && faultmodel.ExpectedArrivals(s.Rates, s.Ranks, s.DevicesPerRank, float64(s.Years)) <= 0 {
		return fmt.Errorf("reliability: conditional acceleration of a zero-rate fault process (nothing to condition on)")
	}
	return nil
}

// run is the one lifetime Monte Carlo behind both metrics. Every trial
// draws an arrival history under the accel's proposal, expands it under
// the burst model, and writes m's per-year series; the trial weight is
// the likelihood ratio of the primary arrival process alone, which stays
// exact under expansion because bursts are drawn from the same
// conditional law under the nominal and proposal processes. The
// estimator picks the job's accumulator and shard loop: plain sampling
// without CI folds the series into per-year sums, and everything else
// into an mc.WeightedSet, sketching the final year of the overhead when
// every weight is 1. The engine calls each shard once, and the shard
// runs its trials in one loop over the run's concrete sampler, burst
// model and series writer.
func (s Spec) run(ctx context.Context, m metric) (*SeriesStats, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	years := float64(s.Years)
	tiltHint := s.Burst.CapHintFactor()
	if s.Accel.Mode == AccelTilted {
		tiltHint *= s.Accel.Tilt
	}
	newScratch := newArrivalScratch(s.Rates, s.Ranks, s.DevicesPerRank, years, tiltHint)
	r := &lifetimeRun{metric: m, burst: s.Burst, bursts: !s.Burst.IsZero(), ends: yearEnds(s.Years)}
	// One sampler for the whole run: the per-type means and exponentials
	// depend only on the Spec, never on the trial.
	switch s.Accel.Mode {
	case AccelConditional:
		r.sampler = faultmodel.NewConditionalSampler(s.Rates, s.Ranks, s.DevicesPerRank, years)
	case AccelTilted:
		r.sampler = faultmodel.NewTiltedSampler(s.Rates, s.Accel.Tilt, s.Ranks, s.DevicesPerRank, years)
	default:
		r.sampler = faultmodel.NewSampler(s.Rates, s.Ranks, s.DevicesPerRank, years)
	}

	job := mc.Job{Trials: s.Channels, Seed: s.Seed, NewScratch: newScratch}
	if !s.CI && s.Accel.Mode == AccelNone {
		job.NewAcc = newYearSums(s.Years)
		job.Shard = func(src *rng.Source, lo, hi int, a mc.Accumulator, sc any) {
			scratch, sums := sc.(*arrivalScratch), a.(*yearSums).sums
			for range hi - lo {
				arrivals, _ := r.sampler.SampleInto(src, scratch.buf)
				if len(arrivals) == 0 {
					// Most channels see no fault: their series is all +0,
					// the identity on sums that start at +0 (a sum is -0
					// only if both addends are), and expanding them draws
					// nothing.
					continue
				}
				r.series(src, scratch, arrivals)
				for i, v := range scratch.series {
					sums[i] += v
				}
			}
		}
	} else {
		var sketch []int
		if r.overhead && s.Accel.Mode == AccelNone {
			// Raw per-channel quantiles are only meaningful when every
			// trial weight is 1.
			sketch = []int{s.Years - 1}
		}
		job.NewAcc = func() mc.Accumulator { return mc.NewWeightedSet(s.Years, sketch...) }
		job.Shard = func(src *rng.Source, lo, hi int, a mc.Accumulator, sc any) {
			scratch, set := sc.(*arrivalScratch), a.(*mc.WeightedSet)
			for range hi - lo {
				arrivals, w := r.sampler.SampleInto(src, scratch.buf)
				r.series(src, scratch, arrivals)
				set.Add(scratch.series, w)
			}
		}
	}
	acc, err := mc.RunCtx(ctx, job, s.Opts)
	if err != nil {
		return nil, err
	}
	if a, ok := acc.(*yearSums); ok {
		for i := range a.sums {
			a.sums[i] /= float64(s.Channels)
		}
		return &SeriesStats{Mean: a.sums, Trials: s.Channels}, nil
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

// WorstCaseOverheads derives the Fig 7.4/7.5 "worst case est." inputs from
// Table 7.4 spans: with zero spatial locality, every access to an upgraded
// page costs factor-1 extra (factor 2 for ARCC on commercial chipkill:
// double power, half bandwidth), so a fault that upgrades fraction f of
// pages costs (factor-1)*f.
func WorstCaseOverheads(shape faultmodel.ChannelShape, factor float64) OverheadByType {
	if factor < 1 {
		panic("reliability: worst-case factor below 1")
	}
	out := OverheadByType{}
	for _, t := range faultmodel.Types() {
		if t.IsTransientScale() {
			continue // page-scale spans: negligible overhead (Table 7.4)
		}
		out[t] = (factor - 1) * shape.UpgradedFraction(t)
	}
	return out
}
