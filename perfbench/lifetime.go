package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"

	"arcc/internal/exhibit"
	"arcc/internal/experiments"
	"arcc/internal/faultmodel"
	"arcc/internal/mc"
	"arcc/internal/reliability"
	"arcc/internal/stats"
)

// lifetimeMC runs declarative pure-Monte-Carlo scenarios ("mixes": [], so
// no simulator runs) through the scenario exhibit and renders each report
// as JSON. One op is one scenario; the work unit is channel trials (each
// scenario runs two lifetime Monte Carlos of `trials` channels).
var lifetimeMC = loadSpec{cycle: len(lifetimeOps), setup: setupLifetime}

// lifetimeOp is one scenario of the rotation.
type lifetimeOp struct {
	name   string
	rate   float64
	accel  string
	burst  *faultmodel.Burst
	trials int
}

// lifetimeOps rotates plain sampling at field rates ×{1,2,4}, where most
// trials draw no fault, with conditional and tilted sampling (confidence
// intervals on), where every trial carries faults and the weighted
// statistics and quantile sketch do work, and one correlated-burst
// scenario. Trial counts put every op near 20 ms, so the latency
// percentiles fall inside one cluster rather than in a gap between op
// kinds.
var lifetimeOps = []lifetimeOp{
	{name: "plain-x1", rate: 1, trials: 14_000},
	{name: "plain-x2", rate: 2, trials: 13_000},
	{name: "plain-x4", rate: 4, trials: 12_000},
	{name: "conditional", rate: 1, accel: "conditional", trials: 14_000},
	{name: "tilt", rate: 1, accel: "tilt:8", trials: 10_000},
	{name: "burst", rate: 3, trials: 12_500, burst: &faultmodel.Burst{
		RowProb: 0.35, RowMean: 4, RowMax: 16, BankProb: 0.15, BankMean: 3, BankMax: 8}},
}

type lifetimeInst struct {
	ex    []exhibit.Exhibit
	scen  []exhibit.Scenario
	cfgs  []exhibit.Config
	seeds []int64
	// first holds each op's report digest from the first pass.
	first []string
	ess   []float64
	buf   bytes.Buffer
}

func setupLifetime(seed int64) (instance, error) {
	l := &lifetimeInst{first: make([]string, len(lifetimeOps)), ess: make([]float64, len(lifetimeOps))}
	for k, op := range lifetimeOps {
		s := exhibit.DefaultScenario()
		s.Name = "perfbench-" + op.name
		s.Mixes = []string{}
		s.RateFactor = op.rate
		s.Trials = op.trials
		s.Accel = op.accel
		s.CI = op.accel != ""
		s.Burst = op.burst
		ex, err := experiments.NewScenarioExhibit(s)
		if err != nil {
			return nil, err
		}
		opSeed := mc.DeriveSeed(seed, uint64(k))
		l.ex = append(l.ex, ex)
		l.scen = append(l.scen, s)
		l.seeds = append(l.seeds, opSeed)
		l.cfgs = append(l.cfgs, exhibit.NewConfig(exhibit.WithSeed(opSeed), exhibit.WithParallel(1)))
	}
	// Warm-up: the first scenario, untimed and unrecorded.
	if _, err := l.run(0); err != nil {
		return nil, err
	}
	return l, nil
}

// run executes scenario k and renders its report; it returns the digest
// of the JSON bytes.
func (l *lifetimeInst) run(k int) (string, error) {
	rep, err := l.ex[k].Run(context.Background(), l.cfgs[k])
	if err != nil {
		return "", fail("error", err)
	}
	l.buf.Reset()
	if err := (exhibit.JSONRenderer{}).Render(&l.buf, rep); err != nil {
		return "", fail("error", err)
	}
	sum := sha256.Sum256(l.buf.Bytes())
	if r, ok := rep.Data.(experiments.ScenarioResult); ok && lifetimeOps[k].accel != "" {
		l.ess[k] = r.FaultyESS / float64(lifetimeOps[k].trials)
	}
	return hex.EncodeToString(sum[:]), nil
}

func (l *lifetimeInst) op(i int) (float64, error) {
	k := i % len(lifetimeOps)
	d, err := l.run(k)
	if err != nil {
		return 0, err
	}
	return l.check(k, d)
}

func (l *lifetimeInst) check(k int, digest string) (float64, error) {
	if l.first[k] == "" {
		l.first[k] = digest
	} else if l.first[k] != digest {
		return 0, fail("incorrect", fmt.Errorf("scenario %s report changed between passes", lifetimeOps[k].name))
	}
	return float64(2 * lifetimeOps[k].trials), nil
}

func (l *lifetimeInst) verify() (string, []string, map[string]any) {
	h := sha256.New()
	var problems []string
	for k, d := range l.first {
		if d == "" {
			problems = append(problems, fmt.Sprintf("scenario %s never ran", lifetimeOps[k].name))
		}
		h.Write([]byte(d))
	}
	return hex.EncodeToString(h.Sum(nil)), problems, map[string]any{"scenarios": len(lifetimeOps)}
}

func (l *lifetimeInst) close() {}

// tracedOp runs the scenario (the part an untraced op times), then drives
// each layer on the op's own parameters: the fault sampler the scenario
// uses, burst expansion, the engine with an empty trial body, and the
// streaming statistics the accelerated paths fold trials into.
func (l *lifetimeInst) tracedOp(i int, tr *tracer) (float64, error) {
	k := i % len(lifetimeOps)
	op, s := lifetimeOps[k], l.scen[k]
	root := tr.begin("op", 0, i)
	defer tr.end(root)

	sp := tr.begin("experiments.RunScenario", root, i)
	d, err := l.run(k)
	tr.opLatency(tr.end(sp))
	if err != nil {
		return 0, err
	}
	work, err := l.check(k, d)
	if err != nil {
		return work, err
	}

	accel, err := reliability.ParseAccel(op.accel)
	if err != nil {
		return work, fail("error", err)
	}
	rates := s.Rates()
	years := float64(s.Years)
	rng := rand.New(rand.NewSource(l.seeds[k]))
	buf := make([]faultmodel.Arrival, 0, faultmodel.ArrivalCapHint(rates, s.Ranks, s.DevicesPerRank, years))
	weights := make([]float64, op.trials)
	counts := make([]float64, op.trials)
	var arrivals, nonEmpty float64

	sp = tr.begin("faultmodel.sample", root, i)
	for t := 0; t < op.trials; t++ {
		w := 1.0
		switch accel.Mode {
		case reliability.AccelConditional:
			buf, w = faultmodel.SampleArrivalsConditionalInto(rng, buf, rates, s.Ranks, s.DevicesPerRank, years)
		case reliability.AccelTilted:
			buf, w = faultmodel.SampleArrivalsTiltedInto(rng, buf, rates, accel.Tilt, s.Ranks, s.DevicesPerRank, years)
		default:
			buf = faultmodel.SampleArrivalsInto(rng, buf, rates, s.Ranks, s.DevicesPerRank, years)
		}
		weights[t], counts[t] = w, float64(len(buf))
	}
	tr.add("faultmodel.sample", tr.end(sp), float64(op.trials))
	for _, n := range counts {
		arrivals += n
		if n > 0 {
			nonEmpty++
		}
	}
	tr.count("faultmodel.arrivals", arrivals)
	tr.count("mc.trials", float64(op.trials))
	tr.count("mc.nonempty", nonEmpty)

	if op.burst != nil {
		expanded := make([]faultmodel.Arrival, 0, 4*cap(buf))
		rng.Seed(l.seeds[k])
		var draws [][]faultmodel.Arrival
		for t := 0; t < op.trials; t++ {
			buf = faultmodel.SampleArrivalsInto(rng, buf[:0], rates, s.Ranks, s.DevicesPerRank, years)
			if len(buf) > 0 {
				draws = append(draws, append([]faultmodel.Arrival(nil), buf...))
			}
		}
		sp = tr.begin("faultmodel.burst", root, i)
		for _, a := range draws {
			expanded = op.burst.ExpandInto(rng, append(expanded[:0], a...))
		}
		tr.add("faultmodel.burst", tr.end(sp), float64(len(draws)))
	}

	job := mc.Job{
		Trials: op.trials,
		Seed:   l.seeds[k],
		NewAcc: func() mc.Accumulator { return emptyAcc{} },
		Trial:  func(*rand.Rand, int, mc.Accumulator) {},
	}
	sp = tr.begin("mc.RunCtx", root, i)
	_, err = mc.RunCtx(context.Background(), job, mc.Options{Parallelism: 1})
	tr.add("mc.RunCtx", tr.end(sp), float64(op.trials))
	if err != nil {
		return work, fail("error", err)
	}

	if op.accel != "" {
		shards := (op.trials + mc.DefaultShardSize - 1) / mc.DefaultShardSize
		ws := make([]stats.Weighted, shards)
		sks := make([]*stats.QuantileSketch, shards)
		for j := range sks {
			sks[j] = stats.NewQuantileSketch(0)
		}
		sp = tr.begin("stats.add", root, i)
		for t := range weights {
			j := t / mc.DefaultShardSize
			ws[j].Add(counts[t], weights[t])
			sks[j].Add(counts[t])
		}
		tr.add("stats.add", tr.end(sp), float64(op.trials))
		sp = tr.begin("stats.merge", root, i)
		for j := 1; j < shards; j++ {
			ws[0].Merge(ws[j])
			sks[0].Merge(sks[j])
		}
		tr.add("stats.merge", tr.end(sp), float64(shards-1))
	}
	return work, nil
}

type emptyAcc struct{}

func (emptyAcc) Merge(mc.Accumulator) {}

func (l *lifetimeInst) layerMetrics(tr *tracer) map[string]metric {
	var ess, n float64
	for k, op := range lifetimeOps {
		if op.accel != "" && l.first[k] != "" {
			ess += l.ess[k]
			n++
		}
	}
	if n > 0 {
		ess /= n
	}
	ratio := func(a, b string) float64 {
		if tr.counts[b] == 0 {
			return 0
		}
		return tr.counts[a] / tr.counts[b]
	}
	return map[string]metric{
		"faultmodel.sample_ns":          {tr.nsPer("faultmodel.sample"), "ns"},
		"faultmodel.burst_expand_ns":    {tr.nsPer("faultmodel.burst"), "ns"},
		"faultmodel.arrivals_per_trial": {ratio("faultmodel.arrivals", "mc.trials"), "count"},
		"mc.engine_ns_per_trial":        {tr.nsPer("mc.RunCtx"), "ns"},
		"stats.add_ns":                  {tr.nsPer("stats.add"), "ns"},
		"stats.merge_ns":                {tr.nsPer("stats.merge"), "ns"},
		"mc.nonempty_trial_ratio":       {ratio("mc.nonempty", "mc.trials"), "ratio"},
		"stats.ess_ratio":               {ess, "ratio"},
	}
}
