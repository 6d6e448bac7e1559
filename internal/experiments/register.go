package experiments

import (
	"context"
	"fmt"
	"io"

	"arcc/internal/exhibit"
)

// This file is the exhibit surface of the experiments package: it
// registers every table, figure, and ablation of the paper's evaluation
// in the process-wide exhibit registry and defines the flat tabular
// projections the CSV renderer emits. The registration order is the order
// the paper presents the exhibits in; `-exhibit all` runs them in this
// order.

// result is what every exhibit computes: typed rows that project their
// own tables and text.
type result interface {
	Tables() []exhibit.Table
	Fprint(io.Writer)
}

// registerResult wires one exhibit into the registry: compute returns the
// typed rows, and the report inherits the exhibit's name and title —
// stated once, so a listing and its reports cannot disagree.
func registerResult[R result](name, title, describe string, compute func(ctx context.Context, cfg exhibit.Config) (R, error)) {
	exhibit.Register(exhibit.Exhibit{
		Name: name, Title: title, Describe: describe,
		Run: func(ctx context.Context, cfg exhibit.Config) (*exhibit.Report, error) {
			r, err := compute(ctx, cfg)
			if err != nil {
				return nil, err
			}
			return newReport(name, title, cfg, r), nil
		},
	})
}

// fixed adapts an exhibit whose rows depend on no run setting.
func fixed[R result](rows func() R) func(context.Context, exhibit.Config) (R, error) {
	return func(context.Context, exhibit.Config) (R, error) { return rows(), nil }
}

func init() {
	registerResult("t7.1", "Table 7.1: Memory Configurations",
		"evaluated memory configurations (baseline chipkill vs ARCC)", fixed(table71))
	registerResult("t7.2", "Table 7.2: Processor Microarchitecture",
		"simulated core parameters", fixed(table72))
	registerResult("t7.3", "Table 7.3: Workloads",
		"the 12 multiprogrammed workload mixes", fixed(table73))
	registerResult("t7.4", "Table 7.4: Fault Modeling Details",
		"fraction of pages upgraded per fault type", fixed(table74))
	registerResult("f3.1", "Figure 3.1: Faulty Memory vs. Time",
		"avg fraction of 4KB pages affected by faults, per year and rate factor (Monte Carlo)", fig31)
	registerResult("f6.1", "Figure 6.1: SDCs in 1000 Machine-Years",
		"closed-form SDC rates: commercial SCCDCD DED vs ARCC's reduced DED", fixed(fig61))
	registerResult("f7.1", "Figure 7.1: Power and Performance Improvements",
		"fault-free ARCC vs commercial chipkill, per mix (full-system simulation)", fig71)
	registerResult("f7.2", "Figure 7.2: Power Consumption with Fault",
		"power under lane/device/subbank/column faults, normalized to fault-free", fig72)
	registerResult("f7.3", "Figure 7.3: Performance with Fault",
		"IPC under lane/device/subbank/column faults, normalized to fault-free", fig73)
	registerResult("f7.4", "Figure 7.4: Power Overhead of Error Correction",
		"lifetime average power overhead vs time, measured and worst-case", fig74)
	registerResult("f7.5", "Figure 7.5: Performance Overhead of Error Correction",
		"lifetime average performance overhead vs time, measured and worst-case", fig75)
	registerResult("f7.6", "Figure 7.6: Overhead of ARCC applied to LOT-ECC",
		"worst-case lifetime overhead of ARCC on LOT-ECC (4x upgraded access cost)", fig76)
	registerResult("due", "Section 6.1: DUE Rates",
		"expected DUE events per machine lifetime: SCCDCD, SCCDCD+ARCC, chip sparing", fixed(dueAnalysis))
	registerResult("ablation-scrub", "Ablation: Scrubber Fault-Detection Coverage",
		"4-step vs conventional scrubber across fault situations (§4.2.2)", fixed(ablationScrub))
	registerResult("ablation-llc", "Ablation: LLC Replacement for Upgraded Pairs",
		"shared-recency vs independent LRU under full upgrade pressure (§4.2.3)", ablationLLCPolicy)
	registerResult("ablation-pairing", "Ablation: Sub-Line Pairing Design",
		"strict-FIFO vs pointer-promotion pairing under full upgrade pressure (§4.2.4)", ablationPairing)
}

// newReport assembles a report from an exhibit's typed result; the
// scenario layer (whose exhibits are built at run time, not registered in
// init) shares it.
func newReport(name, title string, cfg exhibit.Config, r result) *exhibit.Report {
	return &exhibit.Report{
		Exhibit: name,
		Title:   title,
		Meta:    exhibit.MetaFor(cfg),
		Data:    r,
		Tables:  r.Tables(),
		Text:    r.Fprint,
	}
}

// Tables projects Table 7.1 for the CSV renderer.
func (t Table71) Tables() []exhibit.Table {
	out := exhibit.Table{Name: "configurations",
		Columns: []string{"name", "tech", "io", "channels", "ranks_per_channel", "rank_size"}}
	for _, r := range t {
		out.Rows = append(out.Rows, exhibit.Row(r.Name, r.Tech, r.IO,
			exhibit.Itoa(r.Channels), exhibit.Itoa(r.Ranks), exhibit.Itoa(r.RankSize)))
	}
	return []exhibit.Table{out}
}

// Tables projects Table 7.2 for the CSV renderer.
func (t Table72) Tables() []exhibit.Table {
	out := exhibit.Table{Name: "parameters", Columns: []string{"param", "value"}}
	for _, r := range t {
		out.Rows = append(out.Rows, exhibit.Row(r.Param, r.Value))
	}
	return []exhibit.Table{out}
}

// Tables projects Table 7.3 for the CSV renderer.
func (t Table73) Tables() []exhibit.Table {
	out := exhibit.Table{Name: "mixes", Columns: []string{"mix", "core0", "core1", "core2", "core3"}}
	for _, m := range t {
		out.Rows = append(out.Rows, exhibit.Row(m.Name, m.Benchmarks[0].Name,
			m.Benchmarks[1].Name, m.Benchmarks[2].Name, m.Benchmarks[3].Name))
	}
	return []exhibit.Table{out}
}

// Tables projects Table 7.4 for the CSV renderer.
func (t Table74) Tables() []exhibit.Table {
	out := exhibit.Table{Name: "fault_modeling", Columns: []string{"fault_type", "fraction", "note"}}
	for _, r := range t {
		out.Rows = append(out.Rows, exhibit.Row(r.FaultType, exhibit.Ftoa(r.Fraction), r.Note))
	}
	return []exhibit.Table{out}
}

// Tables projects the scrubber coverage ablation for the CSV renderer.
func (rows ScrubAblationResult) Tables() []exhibit.Table {
	t := exhibit.Table{Name: "coverage", Columns: []string{"scenario", "four_step", "conventional"}}
	for _, r := range rows {
		t.Rows = append(t.Rows, exhibit.Row(r.Scenario,
			fmt.Sprintf("%v", r.FourStep), fmt.Sprintf("%v", r.Conventional)))
	}
	return []exhibit.Table{t}
}

// Tables projects the Fig 3.1 series for the CSV renderer.
func (r Fig31Result) Tables() []exhibit.Table {
	return []exhibit.Table{yearTable("faulty_fraction", r.Factors, r.Years, r.Fraction)}
}

// yearTable lays a per-factor yearly series out as one row per year.
func yearTable(name string, factors []float64, years int, data [][]float64) exhibit.Table {
	t := exhibit.Table{Name: name, Columns: []string{"year"}}
	for _, f := range factors {
		t.Columns = append(t.Columns, fmt.Sprintf("%gx", f))
	}
	for y := 0; y < years; y++ {
		row := exhibit.Row(exhibit.Itoa(y + 1))
		for fi := range factors {
			row = append(row, exhibit.Ftoa(data[fi][y]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Tables projects the Fig 6.1 comparison for the CSV renderer.
func (r Fig61Result) Tables() []exhibit.Table {
	t := exhibit.Table{Name: "sdc_rates",
		Columns: []string{"factor", "lifespan_years", "sccdcd_ded", "arcc_ded"}}
	for fi, f := range r.Factors {
		for li, life := range r.Lifespans {
			t.Rows = append(t.Rows, exhibit.Row(exhibit.Ftoa(f), exhibit.Ftoa(life),
				exhibit.Ftoa(r.SCCDCD[fi][li]), exhibit.Ftoa(r.ARCC[fi][li])))
		}
	}
	return []exhibit.Table{t}
}

// Tables projects the Fig 7.1 comparison for the CSV renderer.
func (r Fig71Result) Tables() []exhibit.Table {
	t := exhibit.Table{Name: "improvements",
		Columns: []string{"mix", "power_reduction", "ipc_gain"}}
	for i, m := range r.Mixes {
		t.Rows = append(t.Rows, exhibit.Row(m, exhibit.Ftoa(r.PowerReduction[i]), exhibit.Ftoa(r.IPCGain[i])))
	}
	t.Rows = append(t.Rows, exhibit.Row("AVG", exhibit.Ftoa(r.AvgPowerReduction), exhibit.Ftoa(r.AvgIPCGain)))
	return []exhibit.Table{t}
}

// Tables projects a Fig 7.2/7.3 fault sweep for the CSV renderer.
func (r FaultSweepResult) Tables() []exhibit.Table {
	t := exhibit.Table{Name: "normalized_" + r.Metric, Columns: []string{"mix"}}
	for _, sc := range r.Scenarios {
		t.Columns = append(t.Columns, sc.Name)
	}
	for m, mix := range r.Mixes {
		row := exhibit.Row(mix)
		for s := range r.Scenarios {
			row = append(row, exhibit.Ftoa(r.Normalized[s][m]))
		}
		t.Rows = append(t.Rows, row)
	}
	avg := exhibit.Row("AVG")
	worst := exhibit.Row("worst est.")
	for s := range r.Scenarios {
		avg = append(avg, exhibit.Ftoa(r.Avg[s]))
		worst = append(worst, exhibit.Ftoa(r.WorstCase[s]))
	}
	t.Rows = append(t.Rows, avg, worst)
	return []exhibit.Table{t}
}

// Tables projects a lifetime series for the CSV renderer: one table per
// estimate kind.
func (r LifetimeResult) Tables() []exhibit.Table {
	var out []exhibit.Table
	if r.Measured != nil {
		out = append(out, yearTable("measured", r.Factors, r.Years, r.Measured))
	}
	return append(out, yearTable("worst_case", r.Factors, r.Years, r.WorstCase))
}

// Tables projects the DUE comparison for the CSV renderer.
func (r DUEResult) Tables() []exhibit.Table {
	t := exhibit.Table{Name: "due_rates",
		Columns: []string{"factor", "sccdcd", "sccdcd_arcc", "chip_sparing"}}
	for i, f := range r.Factors {
		t.Rows = append(t.Rows, exhibit.Row(exhibit.Ftoa(f),
			exhibit.Ftoa(r.SCCDCD[i]), exhibit.Ftoa(r.ARCC[i]), exhibit.Ftoa(r.Sparing[i])))
	}
	return []exhibit.Table{t}
}

// Tables projects the LLC policy ablation for the CSV renderer.
func (r PolicyAblationResult) Tables() []exhibit.Table {
	t := exhibit.Table{Name: "ipc_ratio", Columns: append([]string{"policy"}, r.Mixes...)}
	for pi, p := range r.Policies {
		row := exhibit.Row(p)
		for mi := range r.Mixes {
			row = append(row, exhibit.Ftoa(r.IPCRatio[pi][mi]))
		}
		t.Rows = append(t.Rows, row)
	}
	return []exhibit.Table{t}
}

// Tables projects the pairing ablation for the CSV renderer.
func (r PairingAblationResult) Tables() []exhibit.Table {
	t := exhibit.Table{Name: "fifo_ratio", Columns: []string{"mix", "fifo_over_promote"}}
	for i, m := range r.Mixes {
		t.Rows = append(t.Rows, exhibit.Row(m, exhibit.Ftoa(r.FIFORatio[i])))
	}
	return []exhibit.Table{t}
}
