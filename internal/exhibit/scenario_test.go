package exhibit

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"arcc/internal/dram"
	"arcc/internal/faultmodel"
)

func TestParseScenario(t *testing.T) {
	s, err := ParseScenario(strings.NewReader(`{
		"name": "dense-channel",
		"description": "3 ranks of 12 devices at 3x rates",
		"rate_factor": 3,
		"fit_overrides": {"lane": 6.0},
		"ranks": 3,
		"devices_per_rank": 12,
		"years": 5,
		"trials": 2000,
		"scheme": "lotecc",
		"mixes": ["Mix1", "Mix7"],
		"upgraded_fraction": 0.25
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "dense-channel" || s.Ranks != 3 || s.Years != 5 {
		t.Fatalf("fields not decoded: %+v", s)
	}
	// Defaults survive the overlay.
	if s.BanksPerDevice != 8 || s.ScrubHours != 4 || s.System != "arcc" {
		t.Fatalf("defaults lost: %+v", s)
	}
	if got := s.CostFactor(); got != 4 {
		t.Fatalf("lotecc cost factor = %v, want 4", got)
	}
	rates := s.Rates()
	if rates[faultmodel.Lane] != 6.0 {
		t.Fatalf("fit override not applied: lane = %v", rates[faultmodel.Lane])
	}
	if want := faultmodel.FieldStudyRates()[faultmodel.Bit] * 3; rates[faultmodel.Bit] != want {
		t.Fatalf("rate factor not applied: bit = %v, want %v", rates[faultmodel.Bit], want)
	}
	if shape := s.Shape(); shape.RanksPerChannel != 3 {
		t.Fatalf("shape ranks = %d", shape.RanksPerChannel)
	}
}

func TestParseScenarioRejects(t *testing.T) {
	cases := map[string]string{
		"unknown field":   `{"name":"x", "rate_fctor": 2}`,
		"missing name":    `{"rate_factor": 2}`,
		"bad fault type":  `{"name":"x", "fit_overrides": {"pin": 1}}`,
		"bad scheme":      `{"name":"x", "scheme": "hamming"}`,
		"bad system":      `{"name":"x", "system": "vecc"}`,
		"negative factor": `{"name":"x", "rate_factor": -1}`,
		"fraction over 1": `{"name":"x", "upgraded_fraction": 1.5}`,
		"zero years":      `{"name":"x", "years": -3}`,
		"sub-1 upgrade":   `{"name":"x", "upgrade_factor": 0.5}`,
		"not json":        `{"name":`,
		"trailing junk":   `{"name":"x"} "trials": 500`,
	}
	for label, raw := range cases {
		if _, err := ParseScenario(strings.NewReader(raw)); err == nil {
			t.Errorf("%s: accepted %s", label, raw)
		}
	}
}

func TestParseScenarioNewAxes(t *testing.T) {
	s, err := ParseScenario(strings.NewReader(`{
		"name": "axes",
		"dram": "ddr5",
		"width": 16,
		"tenants": [{"benchmark": "mcf2006", "footprint_lines": 12288}],
		"shared_llc": true,
		"llc_bytes": 2097152,
		"trace": "some.trc",
		"burst": {"row_prob": 0.5, "row_mean": 4, "row_max": 16}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Generation() != dram.DDR5 || s.Width != 16 || !s.SharedLLC || s.LLCBytes != 2097152 {
		t.Fatalf("axes not decoded: %+v", s)
	}
	if len(s.Tenants) != 1 || s.Tenants[0].Benchmark != "mcf2006" {
		t.Fatalf("tenants not decoded: %+v", s.Tenants)
	}
	if s.Trace != "some.trc" {
		t.Fatalf("trace not decoded: %q", s.Trace)
	}
	b := s.BurstOrZero()
	if b.RowProb != 0.5 || b.RowMean != 4 || b.RowMax != 16 {
		t.Fatalf("burst not decoded: %+v", b)
	}
	// The zero value keeps the legacy DDR2 path and a zero burst.
	d := DefaultScenario()
	if d.Generation() != dram.DDR2 || !d.BurstOrZero().IsZero() {
		t.Fatalf("defaults changed: gen %v burst %+v", d.Generation(), d.BurstOrZero())
	}
}

func TestParseScenarioRejectsNewAxes(t *testing.T) {
	cases := map[string]string{
		"bad generation":  `{"name":"x", "dram": "ddr6"}`,
		"bad width":       `{"name":"x", "dram": "ddr4", "width": 12}`,
		"ddr2 narrow":     `{"name":"x", "width": 4}`,
		"unknown tenant":  `{"name":"x", "tenants": [{"benchmark": "nope"}]}`,
		"negative lines":  `{"name":"x", "tenants": [{"benchmark": "mesa", "footprint_lines": -1}]}`,
		"llc not pow2":    `{"name":"x", "llc_bytes": 3000000}`,
		"llc too small":   `{"name":"x", "llc_bytes": 1024}`,
		"bad burst prob":  `{"name":"x", "burst": {"row_prob": 2}}`,
		"bad burst max":   `{"name":"x", "burst": {"row_prob": 0.5, "row_mean": 4, "row_max": 1}}`,
		"bad burst field": `{"name":"x", "burst": {"row_probability": 0.5}}`,
	}
	for label, raw := range cases {
		if _, err := ParseScenario(strings.NewReader(raw)); err == nil {
			t.Errorf("%s: accepted %s", label, raw)
		}
	}
}

func TestLoadScenarioMissingFile(t *testing.T) {
	if _, err := LoadScenario("testdata/definitely-missing.json"); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestScenarioBounds pins the inputs Validate must reject before a run
// sizes its buffers from them: each once crashed or silently misbehaved.
func TestScenarioBounds(t *testing.T) {
	cases := []struct {
		label, body string
		ok          bool
	}{
		{"huge rate factor", `{"name":"x", "rate_factor": 1e300}`, false},
		{"huge lifetime", `{"name":"x", "years": 300000000}`, false},
		{"negative FIT override", `{"name":"x", "fit_overrides": {"bit": -5}}`, false},
		{"years just past the cap", `{"name":"x", "years": 101}`, false},
		{"years at the cap", `{"name":"x", "years": 100}`, true},
		{"arrivals past the cap", `{"name":"x", "fit_overrides": {"device": 1e12}}`, false},
		{"geometry past the cap", `{"name":"x", "ranks": 4000000000000, "devices_per_rank": 4000000000000}`, false},
		{"tilt past the cap", `{"name":"x", "rate_factor": 500, "accel": "tilt:1000"}`, false},
		{"tilt inside the cap", `{"name":"x", "rate_factor": 500, "accel": "tilt:8"}`, true},
		{"burst past the cap", `{"name":"x", "rate_factor": 50, "burst": {"row_prob": 1, "row_mean": 4, "row_max": 100000}}`, false},
		{"zero rates", `{"name":"x", "rate_factor": 0}`, true},
		{"zero rates, geometry past the cap", `{"name":"x", "rate_factor": 0, "ranks": 40000000000000}`, false},
		{"zero rates, banks past the cap", `{"name":"x", "rate_factor": 0, "banks_per_device": 4611686018427387904}`, false},
		{"geometry at the cap", `{"name":"x", "rate_factor": 0, "ranks": 65536, "devices_per_rank": 65536, "banks_per_device": 65536}`, true},
	}
	for _, tc := range cases {
		_, err := ParseScenario(strings.NewReader(tc.body))
		if (err == nil) != tc.ok {
			t.Errorf("%s: ParseScenario(%s) error = %v, want ok=%v", tc.label, tc.body, err, tc.ok)
		}
	}
	// JSON cannot carry non-finite numbers, but the Go API (and the
	// command-line flags that fill a Scenario) can.
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		s := DefaultScenario()
		s.Name = "x"
		s.RateFactor = v
		if s.Validate() == nil {
			t.Errorf("rate_factor %v accepted", v)
		}
		s = DefaultScenario()
		s.Name = "x"
		s.FITOverrides = map[string]float64{"row": v}
		if s.Validate() == nil {
			t.Errorf("FIT override %v accepted", v)
		}
	}
}

// FuzzParseScenario feeds arbitrary request bodies to the scenario parser:
// an accepted scenario must resolve without panicking and stay within the
// bounds Validate promises.
func FuzzParseScenario(f *testing.F) {
	f.Add(`{"name":"x", "rate_factor": 1e300}`)
	f.Add(`{"name":"x", "years": 300000000}`)
	f.Add(`{"name":"x", "fit_overrides": {"bit": -5}}`)
	f.Add(`{"name":"x", "rate_factor": 0, "ranks": 40000000000000}`)
	examples, _ := filepath.Glob("../../examples/*/*.json")
	if len(examples) == 0 {
		f.Fatal("no example scenarios to seed from")
	}
	for _, path := range examples {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(raw))
	}
	f.Fuzz(func(t *testing.T, body string) {
		s, err := ParseScenario(strings.NewReader(body))
		if err != nil {
			return
		}
		rates := s.Rates()
		if cost := s.CostFactor(); !(cost >= 1) || math.IsInf(cost, 1) {
			t.Fatalf("cost factor %v", cost)
		}
		s.Generation()
		if shape := s.Shape(); shape.RanksPerChannel != s.Ranks || shape.TotalPages <= 0 {
			t.Fatalf("shape %+v for %d ranks", shape, s.Ranks)
		}
		if s.Years > maxYears {
			t.Fatalf("accepted %d years", s.Years)
		}
		for typ, fit := range rates {
			if !(fit >= 0) || math.IsInf(fit, 1) {
				t.Fatalf("accepted %v FIT %v", typ, fit)
			}
		}
		arrivals := faultmodel.ExpectedArrivals(rates, s.Ranks, s.DevicesPerRank, float64(s.Years))
		if !(arrivals <= maxExpectedArrivals) {
			t.Fatalf("accepted %v expected arrivals", arrivals)
		}
	})
}
