package main

import (
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"slices"
	"sort"
	"syscall"
	"time"
)

// loadSpec describes one closed-loop workload: one client sends its next
// op only after the previous one completes.
type loadSpec struct {
	// cycle is the number of ops after which the op mix repeats.
	// Throughput and latency are taken over whole cycles, so every sample
	// sees the same mix of op kinds.
	cycle int
	// setup generates the inputs from seed, builds the program state and
	// runs one untimed warm-up op.
	setup func(seed int64) (instance, error)
}

// instance is one built workload.
type instance interface {
	// op runs op i and returns the work units it completed.
	op(i int) (float64, error)
	// tracedOp is op with spans recorded around the calls into each layer.
	tracedOp(i int, tr *tracer) (float64, error)
	// layerMetrics reports the per-layer metrics the traced ops recorded.
	layerMetrics(tr *tracer) map[string]metric
	// verify checks the outputs of every op run so far. It returns the
	// output digest (compared with digests.json at the default seed), the
	// problems found, and workload notes for the result file.
	verify() (digest string, problems []string, notes map[string]any)
	close()
}

// opFailure is an op that completed with a failure; reason keys the
// failure accounting.
type opFailure struct {
	reason string
	err    error
}

func (f *opFailure) Error() string { return f.reason + ": " + f.err.Error() }
func (f *opFailure) Unwrap() error { return f.err }

func fail(reason string, err error) error { return &opFailure{reason: reason, err: err} }

// sample is one timed op.
type sample struct {
	dur, cpu time.Duration // wall clock, process CPU clock
	cal      time.Duration // CPU time of the calibration slice after the op
	work     float64
	ok       bool
}

// loopResult is what one timed window produced.
type loopResult struct {
	samples  []sample
	window   time.Duration // wall clock
	failures map[string]int64
	problems []string
}

// setupAll builds the workload setupRepeats times and returns the last
// instance with the median set-up time in seconds, on the normalised CPU
// clock (calib.go).
func setupAll(w loadSpec, seed int64) (instance, float64, error) {
	times := make([]float64, 0, setupRepeats)
	var inst instance
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			inst.close()
			inst = nil
		}
		// Return freed memory to the OS, so every set-up pays for the memory
		// it touches, not only the first.
		debug.FreeOSMemory()
		cal := calibrateMedian(5)
		c0 := cpuClock()
		in, err := w.setup(seed)
		times = append(times, normalise(cpuClock()-c0, cal).Seconds())
		if err != nil {
			return nil, 0, fmt.Errorf("setup: %w", err)
		}
		inst = in
	}
	return inst, median(times), nil
}

// timedLoop runs ops from first on until the window elapses (with
// wholeCycles, until the first cycle boundary after it). opFn selects the
// traced or untraced op.
func timedLoop(w loadSpec, window time.Duration, first int, wholeCycles bool, opFn func(i int) (float64, error)) loopResult {
	res := loopResult{failures: map[string]int64{}}
	t0 := time.Now()
	deadline := t0.Add(window)
	for i := first; ; i++ {
		start := time.Now()
		if !start.Before(deadline) && (!wholeCycles || (i-first)%w.cycle == 0) {
			break
		}
		c0 := cpuClock()
		work, err := opFn(i)
		s := sample{dur: time.Since(start), cpu: cpuClock() - c0, work: work, ok: err == nil}
		s.cal = calibrate()
		res.samples = append(res.samples, s)
		if err == nil {
			continue
		}
		var f *opFailure
		if !errors.As(err, &f) {
			f = &opFailure{reason: "error", err: err}
		}
		res.failures[f.reason]++
		switch f.reason {
		case "wrong_data", "incorrect", "error":
			res.problems = append(res.problems, err.Error())
		}
	}
	res.window = time.Since(t0)
	return res
}

// endToEndMetrics turns a timed window into the five end-to-end metrics.
func endToEndMetrics(w loadSpec, lr loopResult, setupS float64) (map[string]metric, error) {
	n := len(lr.samples)
	if n < minOps {
		return nil, fmt.Errorf("only %d ops in the window; a run needs at least %d", n, minOps)
	}
	costs := opCosts(lr.samples)
	lat := make([]float64, 0, n)
	var rates []float64
	var work float64
	var dur time.Duration
	for k, s := range lr.samples {
		d := costs[k]
		dur += d
		if !s.ok {
			// A failed op misses every latency target and completes no work.
			d = time.Duration(math.MaxInt64)
		} else {
			work += s.work
		}
		lat = append(lat, float64(d)/1e6)
		if (k+1)%w.cycle == 0 {
			rates = append(rates, work/dur.Seconds())
			work, dur = 0, 0
		}
	}
	return map[string]metric{
		// The median over whole cycles of each cycle's rate keeps a short
		// burst of interference out of the figure.
		"throughput_per_s": {median(rates), "1/s"},
		"latency_p50_ms":   {quantile(lat, 0.50), "ms"},
		"latency_p90_ms":   {quantile(lat, 0.90), "ms"},
		"peak_rss_mb":      {peakRSSMB(), "MB"},
		"setup_s":          {setupS, "s"},
	}, nil
}

// opCosts returns each op's CPU time scaled to the reference host speed by
// the median of the calibration slices within calWindow ops of it.
func opCosts(samples []sample) []time.Duration {
	costs := make([]time.Duration, len(samples))
	cal := make([]float64, 0, 2*calWindow+1)
	for k, s := range samples {
		cal = cal[:0]
		for j := max(0, k-calWindow); j <= min(len(samples)-1, k+calWindow); j++ {
			cal = append(cal, float64(samples[j].cal))
		}
		costs[k] = normalise(s.cpu, time.Duration(median(cal)))
	}
	return costs
}

func runUntraced(w loadSpec, seed int64, window time.Duration) (report, error) {
	inst, setupS, err := setupAll(w, seed)
	if err != nil {
		return report{}, err
	}
	defer inst.close()
	lr := timedLoop(w, window, 0, true, inst.op)
	m, err := endToEndMetrics(w, lr, setupS)
	if err != nil {
		return report{}, err
	}
	return finishReport(inst, lr, m), nil
}

// runTraced spends half the window untraced and half traced, reports the
// per-layer metrics from the traced half, and the tracing overhead: the
// relative gap between the median wall time of the part of each traced op
// that an untraced op times, and the untraced median.
func runTraced(w loadSpec, seed int64, window time.Duration) (report, error) {
	inst, _, err := setupAll(w, seed)
	if err != nil {
		return report{}, err
	}
	defer inst.close()
	plain := timedLoop(w, window/2, 0, false, inst.op)
	tr := newTracer()
	traced := timedLoop(w, window/2, len(plain.samples), false, func(i int) (float64, error) {
		return inst.tracedOp(i, tr)
	})
	if len(plain.samples) == 0 || len(traced.samples) == 0 {
		return report{}, errors.New("traced run completed no ops")
	}
	m := inst.layerMetrics(tr)
	var plainMS []float64
	for _, s := range plain.samples {
		plainMS = append(plainMS, float64(s.dur)/1e6)
	}
	p, t := median(plainMS), median(tr.e2e)
	m["trace.overhead_pct"] = metric{100 * (t - p) / p, "%"}
	for _, l := range perLayer {
		if _, ok := m[l.name]; !ok {
			m[l.name] = metric{0, l.unit}
		}
	}
	merged := loopResult{
		samples:  append(plain.samples, traced.samples...),
		window:   plain.window + traced.window,
		failures: plain.failures,
		problems: append(plain.problems, traced.problems...),
	}
	for k, v := range traced.failures {
		merged.failures[k] += v
	}
	rep := finishReport(inst, merged, m)
	rep.spans = tr.spans
	rep.selfTime = tr.selfTimes()
	return rep, nil
}

func finishReport(inst instance, lr loopResult, m map[string]metric) report {
	digest, problems, notes := inst.verify()
	rep := report{
		metrics:  m,
		failures: lr.failures,
		problems: append(lr.problems, problems...),
		digest:   digest,
		notes:    notes,
	}
	if rep.notes == nil {
		rep.notes = map[string]any{}
	}
	// The raw clocks, for comparison with the metrics: wall time includes
	// hypervisor steal and disk waits; neither is normalised to the host
	// speed, which cal_median_us tracks.
	var wallMS, cpuMS, calUS []float64
	var work float64
	for _, s := range lr.samples {
		rep.attempted++
		if !s.ok {
			rep.failed++
		}
		wallMS = append(wallMS, float64(s.dur)/1e6)
		cpuMS = append(cpuMS, float64(s.cpu)/1e6)
		calUS = append(calUS, float64(s.cal)/1e3)
		work += s.work
	}
	rep.notes["ops"] = len(lr.samples)
	rep.notes["window_s"] = lr.window.Seconds()
	rep.notes["wall_p50_ms"] = quantile(wallMS, 0.5)
	rep.notes["wall_p90_ms"] = quantile(wallMS, 0.9)
	rep.notes["wall_throughput_per_s"] = work / lr.window.Seconds()
	rep.notes["cpu_p50_ms"] = quantile(cpuMS, 0.5)
	rep.notes["cal_median_us"] = median(calUS)
	var gc debug.GCStats
	debug.ReadGCStats(&gc)
	rep.notes["gc_cycles"] = gc.NumGC
	return rep
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// cpuClock returns the user+system CPU time of every thread of the
// process. It advances only while the process runs, so time the hypervisor
// takes the shared machine's CPUs away (steal) does not show, while CPU
// work on every thread — GC workers included — does.
func cpuClock() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
