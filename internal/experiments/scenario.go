package experiments

import (
	"context"
	"fmt"
	"io"

	"arcc/internal/exhibit"
	"arcc/internal/mc"
	"arcc/internal/reliability"
	"arcc/internal/sim"
	"arcc/internal/workload"
)

// ScenarioResult holds everything a declarative scenario computes: the
// lifetime reliability sweep of the described channel, the closed-form
// SDC/DUE rates, and (when the scenario names workload mixes) a
// full-system simulator sweep at the scenario's upgraded fraction.
type ScenarioResult struct {
	Scenario exhibit.Scenario
	// FaultyFraction[y] is the average fraction of pages affected by
	// faults by the end of year y+1 (Fig 3.1 methodology).
	FaultyFraction []float64
	// Overhead[y] is the worst-case average access-cost overhead through
	// year y+1 under the scenario's upgrade factor (Fig 7.4 methodology).
	Overhead []float64
	// FaultyCI/OverheadCI are the per-year 95% confidence half-widths of
	// the series above, and FaultyESS/OverheadESS the effective sample
	// sizes of their Monte Carlos. Populated only when the scenario
	// requests acceleration or confidence intervals.
	FaultyCI    []float64 `json:",omitempty"`
	OverheadCI  []float64 `json:",omitempty"`
	FaultyESS   float64   `json:",omitempty"`
	OverheadESS float64   `json:",omitempty"`
	// OverheadQuantiles summarises the final year's per-channel overhead
	// distribution; only plain (unweighted) sampling has meaningful raw
	// quantiles, so accelerated runs leave it nil.
	OverheadQuantiles *QuantileSummary `json:",omitempty"`
	// SDCs per 1000 machine-years (closed form, Fig 6.1 methodology).
	SDCSCCDCD, SDCARCC float64
	// Expected DUE events per machine lifetime (§6.1 methodology).
	DUESCCDCD, DUEARCC, DUESparing float64
	// Simulator sweep labels, one per run: the scenario's mix names, plus
	// "tenants" for its multi-tenant interference run and "trace" for its
	// trace-replay run. Nil when the scenario requests no simulator runs.
	Mixes []string
	// IPC and PowerMW are the runs at the scenario's upgraded fraction;
	// the Vs ratios normalize to the fault-free run of the same mix.
	IPC, PowerMW             []float64
	IPCVsClean, PowerVsClean []float64
}

// QuantileSummary is the tail summary of a per-channel distribution,
// read off a bounded-memory quantile sketch.
type QuantileSummary struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
}

// NewScenarioExhibit turns a declarative scenario into a runnable
// exhibit named after it. The scenario is resolved here, once; the
// exhibit's runs execute that plan. The exhibit is returned, not
// registered: scenario names come from user files and must not collide
// with (or shadow) the paper's exhibits.
func NewScenarioExhibit(s exhibit.Scenario) (exhibit.Exhibit, error) {
	plan, err := s.Resolve()
	if err != nil {
		return exhibit.Exhibit{}, err
	}
	return exhibit.Exhibit{
		Name:     s.Name,
		Title:    "Scenario: " + s.Name,
		Describe: s.Description,
		Run: func(ctx context.Context, cfg exhibit.Config) (*exhibit.Report, error) {
			r, err := runScenario(ctx, cfg, plan)
			if err != nil {
				return nil, err
			}
			return newReport(s.Name, "Scenario: "+s.Name, cfg, r), nil
		},
	}, nil
}

// runScenario executes a resolved scenario under cfg: the Monte Carlo
// channel count comes from cfg.Trials when set, otherwise the scenario's;
// seeds derive from cfg's root seed, so a scenario is bit-identical at
// any parallelism like every other exhibit.
func runScenario(ctx context.Context, cfg exhibit.Config, p exhibit.Plan) (ScenarioResult, error) {
	s := p.Scenario
	if cfg.Trials > 0 {
		s.Trials = cfg.Trials
	} else if cfg.Quick && s.Trials > 1_000 {
		s.Trials = 1_000
	}
	// The report embeds the *effective* parameters — what actually ran —
	// so a serialized scenario reproduces the numbers it carries.
	res := ScenarioResult{Scenario: s}

	// Plain sampling without "ci" keeps bare per-year means; intervals,
	// effective sample sizes and acceleration run the weighted estimator,
	// whose accel-"none" means are bit-identical to the plain ones.
	spec := func(tag uint64) reliability.Spec {
		return reliability.Spec{
			Seed: mc.DeriveSeed(cfg.SeedOrDefault(), tag), Opts: cfg.MCOptions(),
			Rates: p.Rates, Burst: p.Burst, Ranks: s.Ranks, DevicesPerRank: s.DevicesPerRank,
			Years: s.Years, Channels: s.Trials, Accel: p.Accel, CI: s.CI,
		}
	}
	fs, err := reliability.FaultyPageFraction(ctx, spec(tagScenario), p.Shape)
	if err != nil {
		return ScenarioResult{}, err
	}
	os, err := reliability.LifetimeOverhead(ctx, spec(tagScenario+1), reliability.WorstCaseOverheads(p.Shape, p.CostFactor), p.CostFactor-1)
	if err != nil {
		return ScenarioResult{}, err
	}
	res.FaultyFraction, res.FaultyCI, res.FaultyESS = fs.Mean, fs.CI95, fs.ESS
	res.Overhead, res.OverheadCI, res.OverheadESS = os.Mean, os.CI95, os.ESS
	if sk := os.FinalSketch; sk != nil && sk.N > 0 {
		res.OverheadQuantiles = &QuantileSummary{
			P50: sk.Quantile(0.50), P90: sk.Quantile(0.90), P99: sk.Quantile(0.99),
		}
	}

	rp := reliability.Params{
		Rates:           p.Rates,
		RanksPerChannel: s.Ranks,
		DevicesPerRank:  s.DevicesPerRank,
		Geom:            reliability.RankGeom{Devices: s.DevicesPerRank, Banks: s.BanksPerDevice, Rows: 16384, Cols: 64},
		ScrubHours:      s.ScrubHours,
		LifeYears:       float64(s.Years),
	}
	res.SDCSCCDCD = reliability.SDCsPer1000MachineYears(reliability.SCCDCDExpectedSDCs(rp), rp.LifeYears)
	res.SDCARCC = reliability.SDCsPer1000MachineYears(reliability.ARCCDEDExpectedSDCs(rp), rp.LifeYears)
	res.DUESCCDCD = reliability.SCCDCDExpectedDUEs(rp)
	res.DUEARCC = reliability.ARCCExpectedDUEs(rp)
	res.DUESparing = reliability.SparingExpectedDUEs(rp)

	// The simulator sweep is one row per plan mix (the named mixes, then
	// the tenants mix), plus a "trace" row when the scenario replays a
	// trace file. Every row shares the scenario's memory-technology,
	// shared-LLC, and LLC-capacity axes; a row's mix names it.
	rows := make([]simRun, 0, len(p.Mixes)+1)
	for _, m := range p.Mixes {
		rows = append(rows, simRun{mix: m})
	}
	if s.Trace != "" {
		src, err := workload.LoadTraceFile(s.Trace)
		if err != nil {
			return ScenarioResult{}, fmt.Errorf("experiments: scenario %q: %w", s.Name, err)
		}
		rows = append(rows, simRun{mix: workload.Mix{Name: "trace"}, trace: src})
	}
	if len(rows) == 0 {
		return res, nil
	}
	system := sim.ARCC
	if p.Baseline {
		system = sim.Baseline
	}
	if s.Instructions == 0 {
		s.Instructions = instructions(cfg)
		res.Scenario = s
	}
	// Every row runs fault-free for reference, then with the scenario's
	// upgraded fraction.
	runs := make([]simRun, 0, 2*len(rows))
	for _, fraction := range []float64{0, s.UpgradedFraction} {
		for _, r := range rows {
			r.system, r.fraction, r.instructions, r.seed = system, fraction, s.Instructions, cfg.SeedOrDefault()
			r.tech, r.llcBytes, r.sharedLLC = p.Tech, s.LLCBytes, s.SharedLLC
			runs = append(runs, r)
		}
	}
	results, err := simulate(ctx, cfg, runs)
	if err != nil {
		return ScenarioResult{}, err
	}
	clean, faulted := results[:len(rows)], results[len(rows):]
	for i, r := range rows {
		res.Mixes = append(res.Mixes, r.mix.Name)
		res.IPC = append(res.IPC, faulted[i].IPCSum)
		res.PowerMW = append(res.PowerMW, faulted[i].PowerMW)
		res.IPCVsClean = append(res.IPCVsClean, faulted[i].IPCSum/clean[i].IPCSum)
		res.PowerVsClean = append(res.PowerVsClean, faulted[i].PowerMW/clean[i].PowerMW)
	}
	return res, nil
}

// Fprint renders the scenario report.
func (r ScenarioResult) Fprint(w io.Writer) {
	s := r.Scenario
	fprintf(w, "Scenario: %s\n", s.Name)
	if s.Description != "" {
		fprintf(w, "%s\n", s.Description)
	}
	fprintf(w, "channel: %d x %d-device ranks, %d banks/device, %gx field-study rates, %s upgrade cost %.0fx\n",
		s.Ranks, s.DevicesPerRank, s.BanksPerDevice, s.RateFactor, s.Scheme, s.CostFactor())
	if r.FaultyCI != nil {
		fprintf(w, "accel: %s, effective samples: faulty %.0f, overhead %.0f (of %d trials)\n",
			s.Accel, r.FaultyESS, r.OverheadESS, s.Trials)
		fprintf(w, "\n%-6s %-26s %-26s\n", "Year", "faulty pages (95% CI)", "worst overhead (95% CI)")
		for y := range r.FaultyFraction {
			fprintf(w, "%-6d %12.4f%% ±%8.4f%% %12.4f%% ±%8.4f%%\n", y+1,
				r.FaultyFraction[y]*100, r.FaultyCI[y]*100, r.Overhead[y]*100, r.OverheadCI[y]*100)
		}
		if q := r.OverheadQuantiles; q != nil {
			fprintf(w, "final-year overhead quantiles: p50 %.4f%%, p90 %.4f%%, p99 %.4f%%\n",
				q.P50*100, q.P90*100, q.P99*100)
		}
	} else {
		fprintf(w, "\n%-6s %-16s %-16s\n", "Year", "faulty pages", "worst overhead")
		for y := range r.FaultyFraction {
			fprintf(w, "%-6d %14.4f%% %14.4f%%\n", y+1, r.FaultyFraction[y]*100, r.Overhead[y]*100)
		}
	}
	fprintf(w, "\nSDCs per 1000 machine-years: SCCDCD DED %.3e, ARCC DED %.3e\n", r.SDCSCCDCD, r.SDCARCC)
	fprintf(w, "expected DUEs per lifetime:  SCCDCD %.3e, SCCDCD+ARCC %.3e, chip sparing %.3e\n",
		r.DUESCCDCD, r.DUEARCC, r.DUESparing)
	if len(r.Mixes) > 0 {
		fprintf(w, "\nsimulator sweep (%s, %.1f%% of pages upgraded):\n", s.System, s.UpgradedFraction*100)
		fprintf(w, "%-8s %-10s %-12s %-14s %-14s\n", "Mix", "IPC", "Power (mW)", "IPC vs clean", "power vs clean")
		for i, m := range r.Mixes {
			fprintf(w, "%-8s %-10.3f %-12.1f %-14.3f %-14.3f\n",
				m, r.IPC[i], r.PowerMW[i], r.IPCVsClean[i], r.PowerVsClean[i])
		}
	}
}

// Tables projects a scenario result for the CSV renderer.
func (r ScenarioResult) Tables() []exhibit.Table {
	lifetime := exhibit.Table{Name: "lifetime",
		Columns: []string{"year", "faulty_fraction", "worst_overhead"}}
	if r.FaultyCI != nil {
		lifetime.Columns = append(lifetime.Columns, "faulty_ci95", "overhead_ci95")
	}
	for y := range r.FaultyFraction {
		row := exhibit.Row(exhibit.Itoa(y+1),
			exhibit.Ftoa(r.FaultyFraction[y]), exhibit.Ftoa(r.Overhead[y]))
		if r.FaultyCI != nil {
			row = append(row, exhibit.Ftoa(r.FaultyCI[y]), exhibit.Ftoa(r.OverheadCI[y]))
		}
		lifetime.Rows = append(lifetime.Rows, row)
	}
	rates := exhibit.Table{Name: "rates",
		Columns: []string{"sdc_sccdcd", "sdc_arcc", "due_sccdcd", "due_arcc", "due_sparing"},
		Rows: [][]string{exhibit.Row(exhibit.Ftoa(r.SDCSCCDCD), exhibit.Ftoa(r.SDCARCC),
			exhibit.Ftoa(r.DUESCCDCD), exhibit.Ftoa(r.DUEARCC), exhibit.Ftoa(r.DUESparing))}}
	out := []exhibit.Table{lifetime, rates}
	if r.FaultyCI != nil {
		mcStats := exhibit.Table{Name: "mc_stats",
			Columns: []string{"accel", "faulty_ess", "overhead_ess"},
			Rows: [][]string{exhibit.Row(r.Scenario.Accel,
				exhibit.Ftoa(r.FaultyESS), exhibit.Ftoa(r.OverheadESS))}}
		if q := r.OverheadQuantiles; q != nil {
			mcStats.Columns = append(mcStats.Columns, "overhead_p50", "overhead_p90", "overhead_p99")
			mcStats.Rows[0] = append(mcStats.Rows[0], exhibit.Ftoa(q.P50), exhibit.Ftoa(q.P90), exhibit.Ftoa(q.P99))
		}
		out = append(out, mcStats)
	}
	if len(r.Mixes) > 0 {
		sweep := exhibit.Table{Name: "sim_sweep",
			Columns: []string{"mix", "ipc", "power_mw", "ipc_vs_clean", "power_vs_clean"}}
		for i, m := range r.Mixes {
			sweep.Rows = append(sweep.Rows, exhibit.Row(m, exhibit.Ftoa(r.IPC[i]),
				exhibit.Ftoa(r.PowerMW[i]), exhibit.Ftoa(r.IPCVsClean[i]), exhibit.Ftoa(r.PowerVsClean[i])))
		}
		out = append(out, sweep)
	}
	return out
}
