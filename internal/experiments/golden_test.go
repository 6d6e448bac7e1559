package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"arcc/internal/exhibit"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenFiles maps every registered exhibit to its golden file. The
// deterministic exhibits (static tables, closed-form Fig 6.1, functional
// ablation-scrub, closed-form due) render identically under any profile;
// the Monte Carlo and simulator exhibits are pinned under the quick
// profile at seed 1 — bit-identical at any parallelism by the engine's
// contract, which TestGoldenExhibits enforces by rendering each exhibit
// at parallelism 1, 4, and GOMAXPROCS.
var goldenFiles = map[string]string{
	"t7.1":             "table71",
	"t7.2":             "table72",
	"t7.3":             "table73",
	"t7.4":             "table74",
	"f3.1":             "fig31_quick_seed1",
	"f6.1":             "fig61",
	"f7.1":             "fig71_quick_seed1",
	"f7.2":             "fig72_quick_seed1",
	"f7.3":             "fig73_quick_seed1",
	"f7.4":             "fig74_quick_seed1",
	"f7.5":             "fig75_quick_seed1",
	"f7.6":             "fig76_quick_seed1",
	"due":              "due",
	"ablation-scrub":   "ablation_scrub",
	"ablation-llc":     "ablation_llc_quick_seed1",
	"ablation-pairing": "ablation_pairing_quick_seed1",
}

// reportGoldens lists the exhibits whose JSON and CSV reports are pinned
// as well (testdata/<golden>.json and .csv): the simulator figures, whose
// values both renderers print at full precision.
var reportGoldens = map[string]bool{"f7.1": true, "f7.2": true, "f7.3": true, "f7.4": true, "f7.5": true}

// scenarioGoldens maps example scenarios to the golden files of their
// text, JSON and CSV reports under the quick profile at seed 1: the
// simulator axes (memory technology, shared LLC, tenants, trace replay)
// that no registered exhibit reaches.
var scenarioGoldens = map[string]string{
	"ddr5-multitenant.json": "scenario_ddr5_multitenant_quick_seed1",
	"trace-replay.json":     "scenario_trace_replay_quick_seed1",
}

// renderFormats runs an exhibit once and renders its report with the
// text renderer and, when reports is set, with the JSON and CSV renderers
// too, keyed by golden file extension. The report's Meta.Parallel is
// cleared first: it is the one field that names the parallelism, so one
// JSON golden holds for every setting.
func renderFormats(t *testing.T, e exhibit.Exhibit, reports bool, parallel int) map[string][]byte {
	t.Helper()
	cfg := exhibit.NewConfig(exhibit.WithQuick(true), exhibit.WithSeed(1), exhibit.WithParallel(parallel))
	r, err := e.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Meta.Parallel = 0
	renderers := map[string]exhibit.Renderer{".golden": exhibit.TextRenderer{}}
	if reports {
		renderers[".json"] = exhibit.JSONRenderer{}
		renderers[".csv"] = exhibit.CSVRenderer{}
	}
	out := make(map[string][]byte, len(renderers))
	for ext, renderer := range renderers {
		var buf bytes.Buffer
		if err := renderer.Render(&buf, r); err != nil {
			t.Fatal(err)
		}
		out[ext] = buf.Bytes()
	}
	return out
}

// TestGoldenExhibits pins the text rendering of every registered exhibit,
// and the JSON and CSV reports of reportGoldens: a refactor that drifts
// any of the paper's numbers, or even their formatting, fails here. Each
// exhibit renders at parallelism 1, 4, and GOMAXPROCS and every rendering
// must match the golden byte for byte — the engine's
// bit-identical-at-any-parallelism contract, enforced at the exhibit
// surface. Run `go test ./internal/experiments -run Golden -update` to
// bless an intentional change.
func TestGoldenExhibits(t *testing.T) {
	if len(goldenFiles) != len(exhibit.All()) {
		t.Fatalf("golden map covers %d exhibits, registry has %d — add the new exhibit's golden",
			len(goldenFiles), len(exhibit.All()))
	}
	for _, e := range exhibit.All() {
		golden := goldenFiles[e.Name]
		t.Run(golden, func(t *testing.T) {
			checkGolden(t, filepath.Join("testdata", golden), func(par int) map[string][]byte {
				return renderFormats(t, e, reportGoldens[e.Name], par)
			})
		})
	}
}

// TestGoldenScenarios pins the reports of scenarioGoldens as
// TestGoldenExhibits pins the exhibits'. It runs from the repository
// root, against which a scenario's trace path is resolved.
func TestGoldenScenarios(t *testing.T) {
	testdata, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	t.Chdir(filepath.Join("..", ".."))
	for file, golden := range scenarioGoldens {
		t.Run(golden, func(t *testing.T) {
			s, err := exhibit.LoadScenario(filepath.Join("examples", "scenarios", file))
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewScenarioExhibit(s)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, filepath.Join(testdata, golden), func(par int) map[string][]byte {
				return renderFormats(t, e, true, par)
			})
		})
	}
}

// checkGolden compares render's output at parallelism 1, 4 and
// GOMAXPROCS (GOMAXPROCS alone under -short) with the golden files at
// base plus each extension, or rewrites them under -update.
func checkGolden(t *testing.T, base string, render func(parallel int) map[string][]byte) {
	t.Helper()
	if *updateGolden {
		for ext, got := range render(0) {
			if err := os.WriteFile(base+ext, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	parallelisms := []int{1, 4, runtime.NumCPU()}
	if testing.Short() {
		parallelisms = []int{runtime.NumCPU()}
	}
	for _, par := range parallelisms {
		for ext, got := range render(par) {
			want, err := os.ReadFile(base + ext)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("output drifted from %s at parallelism %d:\n--- got ---\n%s\n--- want ---\n%s",
					base+ext, par, got, want)
			}
		}
	}
}

// TestJSONReportRoundTrip pins the JSON renderer's schema: the "data"
// field of a rendered report unmarshals back into the exhibit's typed
// rows and compares equal to the in-memory result. Exercised across the
// exhibit kinds (static table, Monte Carlo series, simulator sweep,
// closed form) so every result type's JSON surface stays stable.
func TestJSONReportRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		data func() any // fresh zero holder for the typed rows
	}{
		{"t7.1", func() any { return &Table71{} }},
		{"t7.4", func() any { return &Table74{} }},
		{"f3.1", func() any { return &Fig31Result{} }},
		{"f6.1", func() any { return &Fig61Result{} }},
		{"due", func() any { return &DUEResult{} }},
		{"ablation-scrub", func() any { return &ScrubAblationResult{} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, ok := exhibit.Lookup(tc.name)
			if !ok {
				t.Fatalf("exhibit %q not registered", tc.name)
			}
			cfg := exhibit.NewConfig(exhibit.WithQuick(true), exhibit.WithSeed(1))
			report, err := e.Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := (exhibit.JSONRenderer{}).Render(&buf, report); err != nil {
				t.Fatal(err)
			}
			var wire struct {
				Exhibit string          `json:"exhibit"`
				Title   string          `json:"title"`
				Meta    exhibit.Meta    `json:"meta"`
				Data    json.RawMessage `json:"data"`
			}
			if err := json.Unmarshal(buf.Bytes(), &wire); err != nil {
				t.Fatalf("report is not valid JSON: %v", err)
			}
			if wire.Exhibit != tc.name || wire.Title != report.Title {
				t.Fatalf("envelope drifted: %q / %q", wire.Exhibit, wire.Title)
			}
			if wire.Meta != report.Meta {
				t.Fatalf("meta drifted: %+v vs %+v", wire.Meta, report.Meta)
			}
			holder := tc.data()
			if err := json.Unmarshal(wire.Data, holder); err != nil {
				t.Fatalf("data does not unmarshal into the typed rows: %v", err)
			}
			got := reflect.ValueOf(holder).Elem().Interface()
			if !reflect.DeepEqual(got, report.Data) {
				t.Errorf("typed rows did not round-trip:\n got %+v\nwant %+v", got, report.Data)
			}
		})
	}
}

// TestCSVRendering smoke-checks the tabular projection of every exhibit
// that carries one: headers and row widths must agree, which the CSV
// renderer enforces.
func TestCSVRendering(t *testing.T) {
	for _, name := range []string{"t7.1", "f3.1", "f6.1", "due", "ablation-scrub"} {
		e, _ := exhibit.Lookup(name)
		report, err := e.Run(context.Background(), quick())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := (exhibit.CSVRenderer{}).Render(&buf, report); err != nil {
			t.Errorf("%s: csv render failed: %v", name, err)
		}
		if buf.Len() == 0 {
			t.Errorf("%s: empty csv", name)
		}
	}
}
