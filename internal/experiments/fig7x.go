package experiments

import (
	"context"
	"io"
	"math/rand"

	"arcc/internal/exhibit"
	"arcc/internal/faultmodel"
	"arcc/internal/mc"
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
// fault-free ARCC over commercial chipkill, per mix. The per-mix simulator
// runs fan out across the engine's workers; each run is seeded from its
// config alone, so the figure is identical at any parallelism. A
// cancelled ctx aborts between runs and returns mc.ErrCanceled.
func fig71(ctx context.Context, cfg exhibit.Config) (Fig71Result, error) {
	var res Fig71Result
	mixes := workload.Mixes()
	// Exported fields: the pair must gob-encode for shard checkpointing.
	type pair struct{ Base, Arcc sim.Result }
	pairs, err := mc.MapScratchCtx(ctx, len(mixes), cfg.SeedOrDefault(), cfg.SimOptions(), sim.NewScratch,
		func(_ *rand.Rand, i int, s *sim.Scratch) pair {
			return pair{
				Base: runMix(mixes[i], sim.Baseline, 0, cfg, s),
				Arcc: runMix(mixes[i], sim.ARCC, 0, cfg, s),
			}
		})
	if err != nil {
		return Fig71Result{}, err
	}
	for i, mix := range mixes {
		res.Mixes = append(res.Mixes, mix.Name)
		res.PowerReduction = append(res.PowerReduction, 1-pairs[i].Arcc.PowerMW/pairs[i].Base.PowerMW)
		res.IPCGain = append(res.IPCGain, pairs[i].Arcc.IPCSum/pairs[i].Base.IPCSum-1)
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

// Fig72Result holds power (Fig 7.2) or IPC (Fig 7.3) under fault scenarios,
// normalised to the fault-free run of the same mix.
type FaultSweepResult struct {
	Metric    string // "power" or "ipc"
	Mixes     []string
	Scenarios []FaultScenario
	// Normalized[s][m]: scenario s, mix m, value / fault-free value.
	Normalized [][]float64
	// WorstCase[s] is the zero-locality analytic estimate for scenario s.
	WorstCase []float64
	// Avg[s] averages Normalized[s] across mixes.
	Avg []float64
}

// fig72 reproduces Figure 7.2 (power under faults).
func fig72(ctx context.Context, cfg exhibit.Config) (FaultSweepResult, error) {
	return faultSweep(ctx, cfg, "power")
}

// fig73 reproduces Figure 7.3 (performance under faults).
func fig73(ctx context.Context, cfg exhibit.Config) (FaultSweepResult, error) {
	return faultSweep(ctx, cfg, "ipc")
}

func faultSweep(ctx context.Context, cfg exhibit.Config, metric string) (FaultSweepResult, error) {
	res := FaultSweepResult{Metric: metric, Scenarios: FaultScenarios()}
	mixes := workload.Mixes()
	// Fault-free reference runs, then every (scenario, mix) cell, each a
	// whole simulator run fanned out across the engine's workers.
	clean, err := mc.MapScratchCtx(ctx, len(mixes), cfg.SeedOrDefault(), cfg.SimOptions(), sim.NewScratch,
		func(_ *rand.Rand, i int, s *sim.Scratch) sim.Result {
			return runMix(mixes[i], sim.ARCC, 0, cfg, s)
		})
	if err != nil {
		return FaultSweepResult{}, err
	}
	for i := range mixes {
		res.Mixes = append(res.Mixes, mixes[i].Name)
	}
	cells, err := mc.MapScratchCtx(ctx, len(res.Scenarios)*len(mixes), cfg.SeedOrDefault(), cfg.SimOptions(), sim.NewScratch,
		func(_ *rand.Rand, i int, s *sim.Scratch) sim.Result {
			return runMix(mixes[i%len(mixes)], sim.ARCC, res.Scenarios[i/len(mixes)].Fraction, cfg, s)
		})
	if err != nil {
		return FaultSweepResult{}, err
	}
	for s, sc := range res.Scenarios {
		row := make([]float64, len(mixes))
		for i := range mixes {
			r := cells[s*len(mixes)+i]
			if metric == "power" {
				row[i] = r.PowerMW / clean[i].PowerMW
			} else {
				row[i] = r.IPCSum / clean[i].IPCSum
			}
		}
		res.Normalized = append(res.Normalized, row)
		res.Avg = append(res.Avg, stats.Mean(row))
		if metric == "power" {
			// Zero locality: upgraded accesses cost 2x -> +fraction.
			res.WorstCase = append(res.WorstCase, 1+sc.Fraction)
		} else {
			// Zero locality, bandwidth bound: half bandwidth on the
			// upgraded fraction.
			res.WorstCase = append(res.WorstCase, 1-0.5*sc.Fraction)
		}
	}
	return res, nil
}

// Fprint renders a fault sweep.
func (r FaultSweepResult) Fprint(w io.Writer) {
	title := "Figure 7.2: Power Consumption of a Memory System with Fault (normalized to fault-free)"
	if r.Metric == "ipc" {
		title = "Figure 7.3: Performance of a Memory System with Fault (normalized to fault-free)"
	}
	fprintf(w, "%s\n%-10s", title, "Mix")
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

// runMix runs one sim configuration against the shard's scratch.
func runMix(mix workload.Mix, system sim.MemorySystem, upgradedFraction float64, cfg exhibit.Config, s *sim.Scratch) sim.Result {
	c := sim.DefaultConfig(mix, system)
	c.InstructionsPerCore = instructions(cfg)
	c.UpgradedFraction = upgradedFraction
	c.Seed = cfg.SeedOrDefault()
	return sim.RunWith(c, s)
}
