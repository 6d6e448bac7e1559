package experiments

import (
	"context"
	"io"

	"arcc/internal/exhibit"
	"arcc/internal/faultmodel"
	"arcc/internal/lotecc"
	"arcc/internal/mc"
	"arcc/internal/reliability"
)

// LifetimeResult holds a Fig 7.4/7.5/7.6-style series: average overhead as
// a function of operational years, per fault-rate factor, with the
// measured (locality-aware) and worst-case estimates where applicable.
type LifetimeResult struct {
	Title   string
	Metric  string
	Years   int
	Factors []float64
	// Measured[fi][y]: overhead with the per-fault-type overheads taken
	// from the Fig 7.2/7.3 simulations. Nil when not applicable (Fig 7.6
	// reports the worst case only).
	Measured [][]float64
	// WorstCase[fi][y]: zero-locality analytic estimate.
	WorstCase [][]float64
}

// fig74 reproduces Figure 7.4 (average power overhead of error correction
// vs time). With zero locality an upgraded access costs 2x the power.
func fig74(ctx context.Context, cfg exhibit.Config) (LifetimeResult, error) {
	return lifetimeSweep(ctx, cfg, "power", "Figure 7.4: Power Overhead of Error Correction", "power increase", 2, 1.0)
}

// fig75 reproduces Figure 7.5 (average performance overhead vs time).
// With zero locality an upgraded access halves the bandwidth: an overhead
// of 0.5·f on an upgraded fraction f, which is (factor-1)·f at factor 1.5.
func fig75(ctx context.Context, cfg exhibit.Config) (LifetimeResult, error) {
	return lifetimeSweep(ctx, cfg, "ipc", "Figure 7.5: Performance Overhead of Error Correction", "performance decrease", 1.5, 0.5)
}

// fig76 reproduces Figure 7.6: the worst-case power/performance overhead of
// ARCC applied to LOT-ECC (9-device relaxed, 18-device upgraded), where an
// upgraded access costs 4x a relaxed one.
func fig76(ctx context.Context, cfg exhibit.Config) (LifetimeResult, error) {
	factor := lotecc.WorstCaseUpgradedPowerFactor()
	ov := reliability.WorstCaseOverheads(faultmodel.ARCCChannelShape(), factor)
	res := LifetimeResult{
		Title:   "Figure 7.6: Power/Performance Overhead of ARCC applied to LOT-ECC (worst case)",
		Metric:  "overhead",
		Years:   7,
		Factors: []float64{1, 2, 4},
	}
	for fi, f := range res.Factors {
		rates := faultmodel.FieldStudyRates().Scale(f)
		seed := mc.DeriveSeed(cfg.SeedOrDefault(), tagFig76+uint64(fi))
		series, err := reliability.LifetimeOverhead(ctx, lifetimeSpec(cfg, seed, rates, 9, res.Years), ov, factor-1)
		if err != nil {
			return LifetimeResult{}, err
		}
		res.WorstCase = append(res.WorstCase, series.Mean)
	}
	return res, nil
}

// overheadsFromSweep converts a reading of the fault sweep into
// per-fault-type overheads: the metric's overhead at the average across
// mixes.
func overheadsFromSweep(sweep FaultSweepResult) reliability.OverheadByType {
	overhead := faultMetrics[sweep.Metric].overhead
	out := reliability.OverheadByType{}
	for s, sc := range sweep.Scenarios {
		// Some mixes *gain* performance from upgraded-line prefetch; the
		// lifetime overhead accounting floors per-fault overhead at zero
		// (a fault never helps on average).
		out[sc.Type] = max(overhead(sweep.Avg[s]), 0)
	}
	return out
}

// lifetimeSpec is the plain-sampling Monte Carlo every lifetime exhibit
// runs: cfg's channel count over two ranks of devicesPerRank devices.
func lifetimeSpec(cfg exhibit.Config, seed int64, rates faultmodel.Rates, devicesPerRank, years int) reliability.Spec {
	return reliability.Spec{Seed: seed, Opts: cfg.MCOptions(), Rates: rates, Ranks: 2, DevicesPerRank: devicesPerRank,
		Years: years, Channels: channels(cfg)}
}

// lifetimeSweep runs Fig 7.4 (metric "power") or Fig 7.5 ("ipc"). The
// measured per-fault-type overheads come from the fault sweep's reading
// of metric; the worst case charges worstFactor per upgraded access.
func lifetimeSweep(ctx context.Context, cfg exhibit.Config, metric, title, label string, worstFactor, cap float64) (LifetimeResult, error) {
	sweep, err := readSweep(ctx, cfg, metric)
	if err != nil {
		return LifetimeResult{}, err
	}
	measured := overheadsFromSweep(sweep)
	worst := reliability.WorstCaseOverheads(faultmodel.ARCCChannelShape(), worstFactor)
	res := LifetimeResult{Title: title, Metric: label, Years: 7, Factors: []float64{1, 2, 4}}
	for fi, f := range res.Factors {
		rates := faultmodel.FieldStudyRates().Scale(f)
		meas, err := reliability.LifetimeOverhead(ctx,
			lifetimeSpec(cfg, mc.DeriveSeed(cfg.SeedOrDefault(), tagLifetimeMeas+uint64(fi)), rates, 18, res.Years), measured, cap)
		if err != nil {
			return LifetimeResult{}, err
		}
		res.Measured = append(res.Measured, meas.Mean)
		wc, err := reliability.LifetimeOverhead(ctx,
			lifetimeSpec(cfg, mc.DeriveSeed(cfg.SeedOrDefault(), tagLifetimeWorst+uint64(fi)), rates, 18, res.Years), worst, cap)
		if err != nil {
			return LifetimeResult{}, err
		}
		res.WorstCase = append(res.WorstCase, wc.Mean)
	}
	return res, nil
}

// Fprint renders a lifetime series.
func (r LifetimeResult) Fprint(w io.Writer) {
	fprintf(w, "%s (%s vs fault-free, averaged from year 1 to year X)\n", r.Title, r.Metric)
	fprintf(w, "%-6s", "Year")
	for _, f := range r.Factors {
		if r.Measured != nil {
			fprintf(w, " %9.0fx-meas", f)
		}
		fprintf(w, " %9.0fx-worst", f)
	}
	fprintf(w, "\n")
	for y := 0; y < r.Years; y++ {
		fprintf(w, "%-6d", y+1)
		for fi := range r.Factors {
			if r.Measured != nil {
				fprintf(w, " %14.3f%%", r.Measured[fi][y]*100)
			}
			fprintf(w, " %15.3f%%", r.WorstCase[fi][y]*100)
		}
		fprintf(w, "\n")
	}
}
