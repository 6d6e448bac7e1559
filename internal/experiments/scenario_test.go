package experiments

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"arcc/internal/exhibit"
	"arcc/internal/faultmodel"
	"arcc/internal/mc"
	"arcc/internal/workload"
)

func testScenario() exhibit.Scenario {
	s := exhibit.DefaultScenario()
	s.Name = "test-sweep"
	s.Description = "a sweep the paper never shipped"
	s.RateFactor = 3
	s.Ranks = 3
	s.DevicesPerRank = 12
	s.Years = 5
	s.Trials = 400
	s.Scheme = "lotecc"
	s.Mixes = []string{"Mix1", "Mix7"}
	s.UpgradedFraction = 0.25
	return s
}

// runScenarioExhibit runs s the way every caller does: resolved by
// NewScenarioExhibit, executed by the exhibit's Run.
func runScenarioExhibit(ctx context.Context, cfg exhibit.Config, s exhibit.Scenario) (ScenarioResult, error) {
	ex, err := NewScenarioExhibit(s)
	if err != nil {
		return ScenarioResult{}, err
	}
	r, err := ex.Run(ctx, cfg)
	if err != nil {
		return ScenarioResult{}, err
	}
	return r.Data.(ScenarioResult), nil
}

func TestRunScenario(t *testing.T) {
	cfg := exhibit.NewConfig(exhibit.WithQuick(true), exhibit.WithSeed(1))
	r, err := runScenarioExhibit(context.Background(), cfg, testScenario())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.FaultyFraction) != 5 || len(r.Overhead) != 5 {
		t.Fatalf("series length wrong: %d/%d", len(r.FaultyFraction), len(r.Overhead))
	}
	for y := 1; y < 5; y++ {
		if r.FaultyFraction[y] < r.FaultyFraction[y-1] {
			t.Fatal("faulty fraction shrank with age")
		}
	}
	if r.FaultyFraction[4] <= 0 || r.Overhead[4] <= 0 {
		t.Fatal("3x-rate scenario produced no faults at all")
	}
	if len(r.Mixes) != 2 || len(r.IPC) != 2 || len(r.IPCVsClean) != 2 {
		t.Fatalf("sim sweep shape wrong: %+v", r.Mixes)
	}
	for i := range r.Mixes {
		if r.IPC[i] <= 0 || r.PowerMW[i] <= 0 {
			t.Fatalf("mix %s: non-positive sim results", r.Mixes[i])
		}
		// A quarter of pages upgraded costs some power, bounded by the
		// all-upgraded worst case.
		if r.PowerVsClean[i] < 0.97 || r.PowerVsClean[i] > 1.30 {
			t.Errorf("mix %s: power ratio %v outside [0.97, 1.30]", r.Mixes[i], r.PowerVsClean[i])
		}
	}

	var buf bytes.Buffer
	r.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"Scenario: test-sweep", "faulty pages", "simulator sweep", "Mix7"} {
		if !strings.Contains(out, want) {
			t.Errorf("scenario rendering missing %q", want)
		}
	}
	if n := len(r.Tables()); n != 3 {
		t.Fatalf("scenario with sim sweep must project 3 tables, got %d", n)
	}
}

// TestRunScenarioStats exercises the scenario's accel/ci fields: plain CI
// runs keep the legacy means bit for bit while adding intervals, ESS,
// and tail quantiles; accelerated runs agree within their intervals and
// carry no raw-quantile summary.
func TestRunScenarioStats(t *testing.T) {
	base := testScenario()
	base.Mixes = nil // lifetime sweep only

	plainCfg := exhibit.NewConfig(exhibit.WithSeed(1))
	plain, err := runScenarioExhibit(context.Background(), plainCfg, base)
	if err != nil {
		t.Fatal(err)
	}
	if plain.FaultyCI != nil || plain.OverheadQuantiles != nil {
		t.Fatal("plain run carries stats it was not asked for")
	}

	ciScen := base
	ciScen.CI = true
	withCI, err := runScenarioExhibit(context.Background(), plainCfg, ciScen)
	if err != nil {
		t.Fatal(err)
	}
	for y := range plain.FaultyFraction {
		if withCI.FaultyFraction[y] != plain.FaultyFraction[y] || withCI.Overhead[y] != plain.Overhead[y] {
			t.Fatalf("year %d: CI reporting changed the means (%v vs %v, %v vs %v)",
				y+1, withCI.FaultyFraction[y], plain.FaultyFraction[y], withCI.Overhead[y], plain.Overhead[y])
		}
	}
	if len(withCI.FaultyCI) != base.Years || len(withCI.OverheadCI) != base.Years {
		t.Fatalf("CI series mis-sized: %d/%d", len(withCI.FaultyCI), len(withCI.OverheadCI))
	}
	if withCI.OverheadESS != float64(base.Trials) {
		t.Fatalf("unit-weight ESS %v, want %d", withCI.OverheadESS, base.Trials)
	}
	if withCI.OverheadQuantiles == nil {
		t.Fatal("plain-sampling CI run should summarise final-year quantiles")
	}
	if !withCI.Scenario.CI || withCI.Scenario.Accel != "" {
		t.Fatalf("effective scenario wrong: %+v", withCI.Scenario)
	}

	accelScen := base
	accelScen.Accel = "conditional"
	accel, err := runScenarioExhibit(context.Background(), plainCfg, accelScen)
	if err != nil {
		t.Fatal(err)
	}
	if accel.Scenario.Accel != "conditional" {
		t.Fatalf("effective accel %q", accel.Scenario.Accel)
	}
	if accel.OverheadQuantiles != nil {
		t.Fatal("weighted run must not report raw quantiles")
	}
	for y := range accel.Overhead {
		diff := accel.Overhead[y] - plain.Overhead[y]
		if diff < 0 {
			diff = -diff
		}
		tol := 4 * (accel.OverheadCI[y] + withCI.OverheadCI[y])
		if diff > tol && diff > 1e-12 {
			t.Fatalf("year %d: accelerated overhead %v vs plain %v (tol %v)",
				y+1, accel.Overhead[y], plain.Overhead[y], tol)
		}
	}

	var buf bytes.Buffer
	withCI.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"95% CI", "effective samples", "quantiles"} {
		if !strings.Contains(out, want) {
			t.Errorf("CI rendering missing %q:\n%s", want, out)
		}
	}
	tables := withCI.Tables()
	if len(tables) != 3 { // lifetime, rates, mc_stats
		t.Fatalf("CI run should project 3 tables, got %d", len(tables))
	}
	if tables[0].Columns[len(tables[0].Columns)-1] != "overhead_ci95" {
		t.Fatalf("lifetime table missing CI columns: %v", tables[0].Columns)
	}
}

// TestRunScenarioNewAxes drives every PR-10 scenario axis at once: DDR5
// geometry, correlated bursts, a multi-tenant mix on a shared LLC, and a
// trace-replay row — all declared on the Scenario, no code.
func TestRunScenarioNewAxes(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "core0.trc")
	f, err := os.Create(trace)
	if err != nil {
		t.Fatal(err)
	}
	stream := workload.ByName("mesa").NewStream(7, 0)
	if _, err := workload.Record(f, stream, 2000); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	s := exhibit.DefaultScenario()
	s.Name = "axes-sweep"
	s.Description = "every new axis at once"
	s.RateFactor = 3
	s.Trials = 400
	s.Mixes = []string{"Mix1"}
	s.DRAM = "ddr5"
	s.Width = 8
	s.Burst = &faultmodel.Burst{RowProb: 0.5, RowMean: 4, RowMax: 16}
	s.Tenants = []workload.Tenant{{Benchmark: "mcf2006", FootprintLines: 12288}}
	s.SharedLLC = true
	s.LLCBytes = 1 << 21
	s.Trace = trace

	cfg := exhibit.NewConfig(exhibit.WithQuick(true), exhibit.WithSeed(1))
	r, err := runScenarioExhibit(context.Background(), cfg, s)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"Mix1", "tenants", "trace"}
	if len(r.Mixes) != len(want) {
		t.Fatalf("sim sweep rows %v, want %v", r.Mixes, want)
	}
	for i, label := range want {
		if r.Mixes[i] != label {
			t.Fatalf("sim sweep rows %v, want %v", r.Mixes, want)
		}
		if r.IPC[i] <= 0 || r.PowerMW[i] <= 0 {
			t.Fatalf("row %s: non-positive sim results", label)
		}
	}

	// The burst axis must raise the faulty-page fraction over the same
	// scenario without it (same seed, same trials).
	noBurst := s
	noBurst.Burst = nil
	noBurst.Mixes = nil
	noBurst.Tenants = nil
	noBurst.Trace = ""
	plain, err := runScenarioExhibit(context.Background(), cfg, noBurst)
	if err != nil {
		t.Fatal(err)
	}
	final := len(plain.FaultyFraction) - 1
	if r.FaultyFraction[final] <= plain.FaultyFraction[final] {
		t.Fatalf("burst axis did not raise faulty fraction: %v <= %v",
			r.FaultyFraction[final], plain.FaultyFraction[final])
	}

	// And the whole thing stays bit-identical across parallelism.
	render := func(parallel int) string {
		cfg := exhibit.NewConfig(exhibit.WithQuick(true), exhibit.WithParallel(parallel))
		r, err := runScenarioExhibit(context.Background(), cfg, s)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		r.Fprint(&buf)
		return buf.String()
	}
	if serial, par := render(1), render(4); serial != par {
		t.Errorf("new-axis scenario drifted at parallelism 4:\n%s\nvs serial:\n%s", par, serial)
	}

	var buf bytes.Buffer
	r.Fprint(&buf)
	out := buf.String()
	for _, wantStr := range []string{"tenants", "trace"} {
		if !strings.Contains(out, wantStr) {
			t.Errorf("rendering missing %q:\n%s", wantStr, out)
		}
	}
}

// TestScenarioDeterministicAtAnyParallelism extends the engine contract to
// user-defined scenarios.
func TestScenarioDeterministicAtAnyParallelism(t *testing.T) {
	render := func(parallel int) string {
		cfg := exhibit.NewConfig(exhibit.WithQuick(true), exhibit.WithParallel(parallel))
		r, err := runScenarioExhibit(context.Background(), cfg, testScenario())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		r.Fprint(&buf)
		return buf.String()
	}
	want := render(1)
	if got := render(4); got != want {
		t.Errorf("scenario drifted at parallelism 4:\n%s\nvs serial:\n%s", got, want)
	}
}

func TestNewScenarioExhibit(t *testing.T) {
	ex, err := NewScenarioExhibit(testScenario())
	if err != nil {
		t.Fatal(err)
	}
	if ex.Name != "test-sweep" {
		t.Fatalf("exhibit name %q", ex.Name)
	}
	report, err := ex.Run(context.Background(), quick())
	if err != nil {
		t.Fatal(err)
	}
	if report.Exhibit != "test-sweep" || report.Data == nil || report.Text == nil {
		t.Fatalf("scenario report incomplete: %+v", report)
	}

	bad := testScenario()
	bad.Mixes = []string{"Mix99"}
	if _, err := NewScenarioExhibit(bad); err == nil {
		t.Fatal("unknown mix accepted")
	}
}

// TestExhibitCancellation cancels the context before running MC-backed
// exhibits and asserts the sentinel surfaces through the exhibit API.
func TestExhibitCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range []string{"f3.1", "f7.1", "f7.4", "ablation-llc"} {
		e, ok := exhibit.Lookup(name)
		if !ok {
			t.Fatalf("exhibit %q not registered", name)
		}
		if _, err := e.Run(ctx, quick()); !errors.Is(err, mc.ErrCanceled) {
			t.Errorf("%s: error = %v, want mc.ErrCanceled", name, err)
		}
	}
	if _, err := runScenarioExhibit(ctx, quick(), testScenario()); !errors.Is(err, mc.ErrCanceled) {
		t.Errorf("scenario: error = %v, want mc.ErrCanceled", err)
	}
}
