package experiments

import (
	"context"
	"io"

	"arcc/internal/exhibit"
	"arcc/internal/faultmodel"
	"arcc/internal/mc"
	"arcc/internal/reliability"
)

// Fig31Result holds the Fig 3.1 series: average fraction of 4 KB pages
// affected by faults, per year of lifespan, for each fault-rate factor.
type Fig31Result struct {
	Years   int
	Factors []float64
	// Fraction[fi][y] is the faulty-page fraction at rate factor
	// Factors[fi], end of year y+1.
	Fraction [][]float64
}

// fig31 reproduces Figure 3.1 with a Monte Carlo over memory channels of
// two 36-device ranks (the baseline shape the chapter uses). The channels
// of each rate factor run on the sharded engine with a factor-specific
// seed stream derived from cfg's seed; a cancelled ctx aborts within one
// shard and returns mc.ErrCanceled.
func fig31(ctx context.Context, cfg exhibit.Config) (Fig31Result, error) {
	res := Fig31Result{Years: 7, Factors: []float64{1, 2, 4}}
	shape := faultmodel.ARCCChannelShape()
	for fi, f := range res.Factors {
		rates := faultmodel.FieldStudyRates().Scale(f)
		seed := mc.DeriveSeed(cfg.SeedOrDefault(), tagFig31+uint64(fi))
		series, err := reliability.FaultyPageFraction(ctx, lifetimeSpec(cfg, seed, rates, 36, res.Years), shape)
		if err != nil {
			return Fig31Result{}, err
		}
		res.Fraction = append(res.Fraction, series.Mean)
	}
	return res, nil
}

// Fprint renders the Fig 3.1 series.
func (r Fig31Result) Fprint(w io.Writer) {
	fprintf(w, "Figure 3.1: Faulty Memory vs. Time (avg fraction of 4KB pages affected)\n")
	fprintf(w, "%-6s", "Year")
	for _, f := range r.Factors {
		fprintf(w, " %8.0fx", f)
	}
	fprintf(w, "\n")
	for y := 0; y < r.Years; y++ {
		fprintf(w, "%-6d", y+1)
		for fi := range r.Factors {
			fprintf(w, " %8.4f%%", r.Fraction[fi][y]*100)
		}
		fprintf(w, "\n")
	}
}

// Fig61Result holds the Fig 6.1 comparison: SDCs per 1000 machine-years for
// commercial SCCDCD's simultaneous double error detection versus ARCC's
// reduced (scrub-race-limited) double error detection.
type Fig61Result struct {
	Lifespans []float64 // years
	Factors   []float64
	// SCCDCD[fi][li] and ARCC[fi][li] are SDCs per 1000 machine-years.
	SCCDCD [][]float64
	ARCC   [][]float64
}

// fig61 reproduces Figure 6.1 using the closed-form reliability models
// (validated against Monte Carlo in the reliability package's tests). It
// is pure computation — no Monte Carlo — so it takes no context.
func fig61(cfg exhibit.Config) Fig61Result {
	res := Fig61Result{Lifespans: []float64{5, 6, 7}, Factors: []float64{1, 2, 4}}
	for _, f := range res.Factors {
		var rowS, rowA []float64
		for _, life := range res.Lifespans {
			p := reliability.DefaultParams()
			p.Rates = faultmodel.FieldStudyRates().Scale(f)
			p.LifeYears = life
			rowS = append(rowS, reliability.SDCsPer1000MachineYears(reliability.SCCDCDExpectedSDCs(p), life))
			rowA = append(rowA, reliability.SDCsPer1000MachineYears(reliability.ARCCDEDExpectedSDCs(p), life))
		}
		res.SCCDCD = append(res.SCCDCD, rowS)
		res.ARCC = append(res.ARCC, rowA)
	}
	return res
}

// Fprint renders the Fig 6.1 rows.
func (r Fig61Result) Fprint(w io.Writer) {
	fprintf(w, "Figure 6.1: SDCs in 1000 machine-years (DED = commercial SCCDCD, ARCC DED = reduced detection)\n")
	fprintf(w, "%-8s %-10s %-14s %-14s %-8s\n", "Factor", "Lifespan", "SCCDCD DED", "ARCC DED", "ratio")
	for fi, f := range r.Factors {
		for li, life := range r.Lifespans {
			ratio := 0.0
			if r.SCCDCD[fi][li] > 0 {
				ratio = r.ARCC[fi][li] / r.SCCDCD[fi][li]
			}
			fprintf(w, "%-8.0f %-10.0f %-14.3e %-14.3e %-8.1f\n", f, life, r.SCCDCD[fi][li], r.ARCC[fi][li], ratio)
		}
	}
	fprintf(w, "(both rates are insignificant in absolute terms; the ARCC increase is the paper's point)\n")
}
