package exhibit

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"arcc/internal/faultmodel"
	"arcc/internal/reliability"
	"arcc/internal/sim"
)

// resolveJSON decodes a scenario body and resolves it, the path every
// scenario file and HTTP request takes.
func resolveJSON(body string) (Plan, error) {
	s, err := ParseScenario(strings.NewReader(body))
	if err != nil {
		return Plan{}, err
	}
	return s.Resolve()
}

func TestParseScenario(t *testing.T) {
	p, err := resolveJSON(`{
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
	}`)
	if err != nil {
		t.Fatal(err)
	}
	s := p.Scenario
	if s.Name != "dense-channel" || s.Ranks != 3 || s.Years != 5 {
		t.Fatalf("fields not decoded: %+v", s)
	}
	// Defaults survive the overlay.
	if s.BanksPerDevice != 8 || s.ScrubHours != 4 || s.System != "arcc" {
		t.Fatalf("defaults lost: %+v", s)
	}
	if got := p.CostFactor; got != 4 {
		t.Fatalf("lotecc cost factor = %v, want 4", got)
	}
	if len(p.Mixes) != 2 || p.Mixes[0].Name != "Mix1" || p.Mixes[1].Name != "Mix7" {
		t.Fatalf("mixes not resolved: %+v", p.Mixes)
	}
	rates := p.Rates
	if rates[faultmodel.Lane] != 6.0 {
		t.Fatalf("fit override not applied: lane = %v", rates[faultmodel.Lane])
	}
	if want := faultmodel.FieldStudyRates()[faultmodel.Bit] * 3; rates[faultmodel.Bit] != want {
		t.Fatalf("rate factor not applied: bit = %v, want %v", rates[faultmodel.Bit], want)
	}
	if shape := p.Shape; shape.RanksPerChannel != 3 {
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
		"unknown mix":     `{"name":"x", "mixes": ["Mix1", "Mix99"]}`,
	}
	for label, raw := range cases {
		if _, err := resolveJSON(raw); err == nil {
			t.Errorf("%s: accepted %s", label, raw)
		}
	}
}

func TestParseScenarioNewAxes(t *testing.T) {
	p, err := resolveJSON(`{
		"name": "axes",
		"dram": "ddr5",
		"width": 16,
		"tenants": [{"benchmark": "mcf2006", "footprint_lines": 12288}],
		"shared_llc": true,
		"llc_bytes": 2097152,
		"trace": "some.trc",
		"burst": {"row_prob": 0.5, "row_mean": 4, "row_max": 16}
	}`)
	if err != nil {
		t.Fatal(err)
	}
	s := p.Scenario
	ddr5x16, err := sim.ParseTech("ddr5", 16)
	if err != nil {
		t.Fatal(err)
	}
	if p.Tech != ddr5x16 || s.Width != 16 || !s.SharedLLC || s.LLCBytes != 2097152 {
		t.Fatalf("axes not decoded: %+v (tech %+v)", s, p.Tech)
	}
	if len(s.Tenants) != 1 || s.Tenants[0].Benchmark != "mcf2006" {
		t.Fatalf("tenants not decoded: %+v", s.Tenants)
	}
	// One tenant occupies all four cores as the plan's "tenants" mix.
	if len(p.Mixes) != 1 || p.Mixes[0].Name != "tenants" {
		t.Fatalf("tenants not resolved into a mix: %+v", p.Mixes)
	}
	for i, b := range p.Mixes[0].Benchmarks {
		if b.Name != "mcf2006/t0" || b.FootprintLines != 12288 {
			t.Fatalf("tenants mix core %d runs %+v", i, b)
		}
	}
	if s.Trace != "some.trc" {
		t.Fatalf("trace not decoded: %q", s.Trace)
	}
	b := p.Burst
	if b.RowProb != 0.5 || b.RowMean != 4 || b.RowMax != 16 {
		t.Fatalf("burst not decoded: %+v", b)
	}
	// The zero value keeps the legacy DDR2 path, a zero burst and ARCC.
	d := DefaultScenario()
	d.Name = "defaults"
	dp, err := d.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if dp.Tech != (sim.Tech{}) || !dp.Burst.IsZero() || dp.Baseline || dp.Accel.Mode != reliability.AccelNone {
		t.Fatalf("defaults changed: tech %+v burst %+v baseline %v accel %+v", dp.Tech, dp.Burst, dp.Baseline, dp.Accel)
	}
}

// TestScenarioTechWidths: a scenario's dram/width pair is accepted exactly
// when sim.ParseTech accepts it, and that is exactly DDR2 x8 and DDR4/DDR5
// x4, x8 and x16 (width 0 meaning x8). The plan carries ParseTech's value.
func TestScenarioTechWidths(t *testing.T) {
	accepted := map[string][]int{
		"ddr2": {0, 8},
		"ddr4": {0, 4, 8, 16},
		"ddr5": {0, 4, 8, 16},
	}
	for _, gen := range []string{"ddr2", "ddr4", "ddr5"} {
		for _, width := range []int{0, 4, 8, 12, 16} {
			want := slices.Contains(accepted[gen], width)
			tech, techErr := sim.ParseTech(gen, width)
			p, err := resolveJSON(fmt.Sprintf(`{"name":"x", "dram":%q, "width":%d}`, gen, width))
			if (techErr == nil) != want || (err == nil) != want {
				t.Errorf("%s x%d: ParseTech err %v, Resolve err %v, want accepted=%v", gen, width, techErr, err, want)
				continue
			}
			if want && p.Tech != tech {
				t.Errorf("%s x%d: plan tech %+v, ParseTech %+v", gen, width, p.Tech, tech)
			}
		}
	}
}

func TestParseScenarioRejectsNewAxes(t *testing.T) {
	cases := map[string]string{
		"bad generation":        `{"name":"x", "dram": "ddr6"}`,
		"bad width":             `{"name":"x", "dram": "ddr4", "width": 12}`,
		"ddr2 narrow":           `{"name":"x", "width": 4}`,
		"unknown tenant":        `{"name":"x", "tenants": [{"benchmark": "nope"}]}`,
		"negative lines":        `{"name":"x", "tenants": [{"benchmark": "mesa", "footprint_lines": -1}]}`,
		"llc not pow2":          `{"name":"x", "llc_bytes": 3000000}`,
		"llc too small":         `{"name":"x", "llc_bytes": 1024}`,
		"llc too large":         `{"name":"x", "mixes": ["Mix1"], "llc_bytes": 134217728}`,
		"instructions too many": `{"name":"x", "mixes": ["Mix1"], "instructions": 100000001}`,
		"bad burst prob":        `{"name":"x", "burst": {"row_prob": 2}}`,
		"bad burst max":         `{"name":"x", "burst": {"row_prob": 0.5, "row_mean": 4, "row_max": 1}}`,
		"bad burst field":       `{"name":"x", "burst": {"row_probability": 0.5}}`,
	}
	for label, raw := range cases {
		if _, err := resolveJSON(raw); err == nil {
			t.Errorf("%s: accepted %s", label, raw)
		}
	}
}

func TestLoadScenarioMissingFile(t *testing.T) {
	if _, err := LoadScenario("testdata/definitely-missing.json"); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestScenarioBounds pins the inputs Resolve must reject before a run
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
		{"llc at the cap", `{"name":"x", "mixes": ["Mix1"], "llc_bytes": 67108864}`, true},
		{"instructions at the cap", `{"name":"x", "mixes": ["Mix1"], "instructions": 100000000}`, true},
		{"geometry at the cap", `{"name":"x", "rate_factor": 0, "ranks": 65536, "devices_per_rank": 65536, "banks_per_device": 65536}`, true},
	}
	for _, tc := range cases {
		_, err := resolveJSON(tc.body)
		if (err == nil) != tc.ok {
			t.Errorf("%s: resolving %s: error = %v, want ok=%v", tc.label, tc.body, err, tc.ok)
		}
	}
	// JSON cannot carry non-finite numbers, but the Go API (and the
	// command-line flags that fill a Scenario) can.
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		s := DefaultScenario()
		s.Name = "x"
		s.RateFactor = v
		if _, err := s.Resolve(); err == nil {
			t.Errorf("rate_factor %v accepted", v)
		}
		s = DefaultScenario()
		s.Name = "x"
		s.FITOverrides = map[string]float64{"row": v}
		if _, err := s.Resolve(); err == nil {
			t.Errorf("FIT override %v accepted", v)
		}
	}
}

// FuzzParseScenario feeds arbitrary request bodies to the scenario parser
// and resolver: neither may panic, and a resolved plan must stay within
// the bounds Resolve promises.
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
		// Rates and CostFactor are pure functions, safe before resolution.
		s.Rates()
		s.CostFactor()
		p, err := s.Resolve()
		if err != nil {
			return
		}
		s = p.Scenario
		rates := p.Rates
		if cost := p.CostFactor; !(cost >= 1) || math.IsInf(cost, 1) {
			t.Fatalf("cost factor %v", cost)
		}
		if cost := s.CostFactor(); cost != p.CostFactor {
			t.Fatalf("plan cost factor %v, scenario's %v", p.CostFactor, cost)
		}
		// One row per named mix, then one "tenants" row if any are declared.
		rows := len(s.Mixes)
		if len(s.Tenants) > 0 {
			rows++
		}
		if len(p.Mixes) != rows {
			t.Fatalf("resolved %d simulator rows for %d mixes and %d tenants", len(p.Mixes), len(s.Mixes), len(s.Tenants))
		}
		if len(s.Tenants) > 0 && p.Mixes[rows-1].Name != "tenants" {
			t.Fatalf("last simulator row %q, want tenants", p.Mixes[rows-1].Name)
		}
		if shape := p.Shape; shape.RanksPerChannel != s.Ranks || shape.TotalPages <= 0 {
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
