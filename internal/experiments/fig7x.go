package experiments

import (
	"context"
	"io"

	"arcc/internal/cache"
	"arcc/internal/exhibit"
	"arcc/internal/faultmodel"
	"arcc/internal/mc"
	"arcc/internal/memctrl"
	"arcc/internal/rng"
	"arcc/internal/sim"
	"arcc/internal/stats"
	"arcc/internal/workload"
)

// FaultScenario names one Fig 7.2/7.3 fault case and its upgraded-page
// fraction (Table 7.4).
type FaultScenario struct {
	Name     string
	Type     faultmodel.Type
	Fraction float64
}

// FaultScenarios returns the four cases of Figs 7.2/7.3.
func FaultScenarios() []FaultScenario {
	shape := faultmodel.ARCCChannelShape()
	return []FaultScenario{
		{"1 Lane Fault", faultmodel.Lane, shape.UpgradedFraction(faultmodel.Lane)},
		{"1 Device Fault", faultmodel.Device, shape.UpgradedFraction(faultmodel.Device)},
		{"1 Subbank Fault", faultmodel.Bank, shape.UpgradedFraction(faultmodel.Bank)},
		{"1 Column Fault", faultmodel.Column, shape.UpgradedFraction(faultmodel.Column)},
	}
}

// Fig71Result holds the fault-free power and performance comparison.
type Fig71Result struct {
	Mixes []string
	// PowerReduction[i] = 1 - ARCC/baseline power for mix i.
	PowerReduction []float64
	// IPCGain[i] = ARCC/baseline IPC - 1 for mix i.
	IPCGain []float64
	// Averages across mixes.
	AvgPowerReduction, AvgIPCGain float64
}

// fig71 reproduces Figure 7.1: DRAM power and performance improvement of
// fault-free ARCC over commercial chipkill, per mix. A cancelled ctx
// aborts between runs and returns mc.ErrCanceled.
func fig71(ctx context.Context, cfg exhibit.Config) (Fig71Result, error) {
	var res Fig71Result
	mixes := workload.Mixes()
	results, err := simulate(ctx, cfg, append(mixRuns(cfg, mixes, simRun{system: sim.Baseline}), mixRuns(cfg, mixes, simRun{system: sim.ARCC})...))
	if err != nil {
		return Fig71Result{}, err
	}
	base, arcc := results[:len(mixes)], results[len(mixes):]
	for i, mix := range mixes {
		res.Mixes = append(res.Mixes, mix.Name)
		res.PowerReduction = append(res.PowerReduction, 1-arcc[i].PowerMW/base[i].PowerMW)
		res.IPCGain = append(res.IPCGain, arcc[i].IPCSum/base[i].IPCSum-1)
	}
	res.AvgPowerReduction = stats.Mean(res.PowerReduction)
	res.AvgIPCGain = stats.Mean(res.IPCGain)
	return res, nil
}

// Fprint renders the Fig 7.1 rows.
func (r Fig71Result) Fprint(w io.Writer) {
	fprintf(w, "Figure 7.1: Power and Performance Improvements (ARCC vs commercial chipkill, fault-free)\n")
	fprintf(w, "%-8s %-16s %-12s\n", "Mix", "Power reduction", "IPC gain")
	for i, m := range r.Mixes {
		fprintf(w, "%-8s %15.1f%% %11.1f%%\n", m, r.PowerReduction[i]*100, r.IPCGain[i]*100)
	}
	fprintf(w, "%-8s %15.1f%% %11.1f%%\n", "AVG", r.AvgPowerReduction*100, r.AvgIPCGain*100)
}

// FaultSweepResult holds one reading of the fault sweep — DRAM power
// (Fig 7.2) or IPC (Fig 7.3) — normalised to the fault-free run of the
// same mix.
type FaultSweepResult struct {
	Metric    string // "power" or "ipc", a key of faultMetrics
	Mixes     []string
	Scenarios []FaultScenario
	// Normalized[s][m]: scenario s, mix m, value / fault-free value.
	Normalized [][]float64
	// WorstCase[s] is the zero-locality analytic estimate for scenario s.
	WorstCase []float64
	// Avg[s] averages Normalized[s] across mixes.
	Avg []float64
}

// faultMetrics are the readings of the fault sweep, keyed by
// FaultSweepResult.Metric: the figure's heading, the value read off a
// run, the zero-locality estimate for an upgraded-page fraction, and the
// lifetime overhead (Figs 7.4/7.5) a normalised value stands for.
var faultMetrics = map[string]struct {
	title           string
	value           func(sim.Result) float64
	worst, overhead func(float64) float64
}{
	"power": {"Figure 7.2: Power Consumption of a Memory System with Fault (normalized to fault-free)",
		func(r sim.Result) float64 { return r.PowerMW },
		func(f float64) float64 { return 1 + f }, // upgraded accesses cost 2x
		func(n float64) float64 { return n - 1 }},
	"ipc": {"Figure 7.3: Performance of a Memory System with Fault (normalized to fault-free)",
		func(r sim.Result) float64 { return r.IPCSum },
		func(f float64) float64 { return 1 - 0.5*f }, // bandwidth bound: half bandwidth when upgraded
		func(n float64) float64 { return 1 - n }},
}

// faultSweep simulates the grid behind Figs 7.2–7.5 once: the fault-free
// ARCC run of every mix, then every mix under each fault scenario in turn.
func faultSweep(ctx context.Context, cfg exhibit.Config) ([]sim.Result, error) {
	runs := mixRuns(cfg, workload.Mixes(), simRun{system: sim.ARCC})
	for _, sc := range FaultScenarios() {
		runs = append(runs, mixRuns(cfg, workload.Mixes(), simRun{system: sim.ARCC, fraction: sc.Fraction})...)
	}
	return simulate(ctx, cfg, runs)
}

// fig72 reproduces Figure 7.2 (power under faults).
func fig72(ctx context.Context, cfg exhibit.Config) (FaultSweepResult, error) {
	return readSweep(ctx, cfg, "power")
}

// fig73 reproduces Figure 7.3 (performance under faults).
func fig73(ctx context.Context, cfg exhibit.Config) (FaultSweepResult, error) {
	return readSweep(ctx, cfg, "ipc")
}

// readSweep runs the fault sweep and projects it onto one metric.
func readSweep(ctx context.Context, cfg exhibit.Config, metric string) (FaultSweepResult, error) {
	sw, err := faultSweep(ctx, cfg)
	if err != nil {
		return FaultSweepResult{}, err
	}
	m := faultMetrics[metric]
	mixes := workload.Mixes()
	res := FaultSweepResult{Metric: metric, Scenarios: FaultScenarios()}
	for _, mix := range mixes {
		res.Mixes = append(res.Mixes, mix.Name)
	}
	for s, sc := range res.Scenarios {
		row := make([]float64, len(mixes))
		for i := range mixes {
			row[i] = m.value(sw[(s+1)*len(mixes)+i]) / m.value(sw[i])
		}
		res.Normalized = append(res.Normalized, row)
		res.Avg = append(res.Avg, stats.Mean(row))
		res.WorstCase = append(res.WorstCase, m.worst(sc.Fraction))
	}
	return res, nil
}

// Fprint renders a fault sweep.
func (r FaultSweepResult) Fprint(w io.Writer) {
	fprintf(w, "%s\n%-10s", faultMetrics[r.Metric].title, "Mix")
	for _, sc := range r.Scenarios {
		fprintf(w, " %16s", sc.Name)
	}
	fprintf(w, "\n")
	for m, mix := range r.Mixes {
		fprintf(w, "%-10s", mix)
		for s := range r.Scenarios {
			fprintf(w, " %16.3f", r.Normalized[s][m])
		}
		fprintf(w, "\n")
	}
	fprintf(w, "%-10s", "AVG")
	for s := range r.Scenarios {
		fprintf(w, " %16.3f", r.Avg[s])
	}
	fprintf(w, "\n%-10s", "worst est.")
	for s := range r.Scenarios {
		fprintf(w, " %16.3f", r.WorstCase[s])
	}
	fprintf(w, "\n")
}

// simRun is one simulator configuration: everything its sim.Result
// depends on, so it also keys the run memo. A zero field keeps the
// Table 7.1/7.2 value of sim.DefaultConfig.
type simRun struct {
	mix          workload.Mix
	system       sim.MemorySystem
	fraction     float64 // upgraded-page fraction
	instructions int64   // per core
	seed         int64
	tech         sim.Tech
	llcBytes     int
	sharedLLC    bool
	policy       cache.Policy
	pairing      memctrl.Pairing
	trace        *workload.TraceSource // drives all four cores when set
}

// config builds the run's simulator configuration.
func (r simRun) config() sim.Config {
	c := sim.DefaultConfig(r.mix, r.system)
	c.InstructionsPerCore = r.instructions
	c.UpgradedFraction = r.fraction
	c.Seed = r.seed
	c.Tech = r.tech
	c.CPUCyclesPerDRAMCycle = r.tech.CPR()
	if r.llcBytes > 0 {
		c.LLCBytes = r.llcBytes
	}
	c.SharedLLC = r.sharedLLC
	c.LLCPolicy = r.policy
	c.Pairing = r.pairing
	if r.trace != nil {
		for core := range c.Sources {
			c.Sources[core] = r.trace.Clone()
		}
	}
	return c
}

// mixRuns lists run r once per mix, at the profile's instruction count
// and the root seed.
func mixRuns(cfg exhibit.Config, mixes []workload.Mix, r simRun) []simRun {
	r.instructions, r.seed = instructions(cfg), cfg.SeedOrDefault()
	runs := make([]simRun, len(mixes))
	for i, mix := range mixes {
		r.mix = mix
		runs[i] = r
	}
	return runs
}

type runMemoKey struct{}

// WithRunMemo returns a context under which the simulator exhibits simulate
// each distinct configuration once: a run that an earlier exhibit made
// under the same context is read back instead of simulated again. A run
// is a pure function of its configuration, so no number changes; only
// the repeated work goes. Install it once for an invocation that runs
// exhibits one after another (the memo is not locked). Benchmarks and
// server jobs run without it, so each simulates its full grid.
func WithRunMemo(ctx context.Context) context.Context {
	return context.WithValue(ctx, runMemoKey{}, map[simRun]sim.Result{})
}

// simulate returns the result of each run, in order. Runs the ctx's memo
// holds are read from it; the rest fan out across the engine's workers,
// one run per shard on the worker's reused sim.Scratch, and join the
// memo. Each run is seeded from its configuration alone, so the results
// are identical at any parallelism, with or without a memo.
func simulate(ctx context.Context, cfg exhibit.Config, runs []simRun) ([]sim.Result, error) {
	memo, ok := ctx.Value(runMemoKey{}).(map[simRun]sim.Result)
	if !ok {
		memo = map[simRun]sim.Result{} // this call's runs only
	}
	var missing []simRun
	for _, r := range runs {
		if _, held := memo[r]; !held {
			missing = append(missing, r)
		}
	}
	if len(missing) > 0 {
		fresh, err := mc.MapScratchCtx(ctx, len(missing), cfg.SeedOrDefault(), cfg.SimOptions(), sim.NewScratch,
			func(_ *rng.Source, i int, s *sim.Scratch) sim.Result {
				return sim.RunWith(missing[i].config(), s)
			})
		if err != nil {
			return nil, err
		}
		for i, r := range missing {
			memo[r] = fresh[i]
		}
	}
	out := make([]sim.Result, len(runs))
	for i, r := range runs {
		out[i] = memo[r]
	}
	return out, nil
}
