package exhibit

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"slices"

	"arcc/internal/faultmodel"
	"arcc/internal/lotecc"
	"arcc/internal/reliability"
	"arcc/internal/sim"
	"arcc/internal/workload"
)

// Scenario is the declarative description of a user-defined sweep: the
// fault mix a channel is exposed to, the ECC upgrade cost it pays per
// fault, and (optionally) a workload sweep through the full-system
// simulator. internal/experiments turns a Scenario into a runnable
// Exhibit, so JSON files can drive studies the paper never shipped.
//
// JSON schema (all fields optional unless noted; zero values take the
// documented defaults):
//
//	{
//	  "name":             "string (required) — registry/report name",
//	  "description":      "string — one-line summary",
//
//	  "rate_factor":      1.0,   // scale on the SC'12 field-study FIT rates
//	  "fit_overrides":    {"lane": 3.0},  // absolute per-device FIT by fault
//	                                      // type: bit, word, column, row,
//	                                      // bank, device, lane
//	  "ranks":            2,     // ranks per channel
//	  "devices_per_rank": 18,    // DRAM devices per rank
//	  "banks_per_device": 8,
//	  "years":            7,     // operational lifespan
//	  "trials":           10000, // Monte Carlo channels (Config.Trials wins)
//	  "scrub_hours":      4.0,   // scrub interval for the SDC/DUE models
//
//	  "scheme":           "chipkill", // upgraded-access cost model:
//	                                  // "chipkill" (2x) or "lotecc" (4x)
//	  "upgrade_factor":   0,     // explicit cost factor; overrides scheme
//
//	  "accel":            "none",  // rare-event acceleration of the lifetime
//	                               // Monte Carlos: "none", "conditional"
//	                               // (require at least one fault), or
//	                               // "tilt:<factor>" (scale rates by factor)
//	  "ci":               false,   // report 95% confidence intervals and
//	                               // effective sample size
//
//	  "burst":            {        // correlated fault bursts (omit for the
//	                               // independent-arrival model)
//	    "row_prob": 0.3,           // chance a row fault is an adjacent-row burst
//	    "row_mean": 4, "row_max": 16,  // truncated-geometric burst size
//	    "bank_prob": 0.1,          // chance a column fault bursts in its bank
//	    "bank_mean": 3, "bank_max": 8
//	  },
//
//	  "mixes":            ["Mix1", "Mix7"], // Table 7.3 names; empty = no
//	                                        // simulator sweep
//	  "system":           "arcc",  // or "baseline"
//	  "upgraded_fraction": 0.25,   // fraction of pages upgraded in sim runs
//	  "instructions":     0,       // per core, <= 1e8; 0 = profile default
//
//	  "dram":             "ddr2",  // simulator memory generation: ddr2
//	                               // (paper's calibrated config), ddr4, ddr5
//	  "width":            8,       // ARCC device width (bits): 8 on ddr2;
//	                               // 4, 8, or 16 on ddr4/ddr5 (sim.ParseTech)
//
//	  "tenants": [                 // multi-tenant interference mix: 1-4
//	                               // tenants mapped round-robin onto the four
//	                               // cores; adds a "tenants" simulator run
//	    {"benchmark": "mcf2006", "footprint_lines": 16777216},
//	    {"benchmark": "swim"}
//	  ],
//	  "shared_llc":       false,   // one shared LLC instead of four private
//	  "llc_bytes":        0,       // LLC capacity (0 = 1 MB; power of two
//	                               // from 2 KB to 64 MB)
//
//	  "trace":            ""       // trace file (workload.TraceWriter format)
//	                               // replayed on all four cores; adds a
//	                               // "trace" simulator run
//	}
//
// The dram/width/tenants/shared_llc/llc_bytes/trace axes shape the
// full-system simulator runs only; the reliability Monte Carlos keep using
// the explicit ranks/devices_per_rank/banks_per_device channel geometry.
type Scenario struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`

	RateFactor     float64            `json:"rate_factor,omitempty"`
	FITOverrides   map[string]float64 `json:"fit_overrides,omitempty"`
	Ranks          int                `json:"ranks,omitempty"`
	DevicesPerRank int                `json:"devices_per_rank,omitempty"`
	BanksPerDevice int                `json:"banks_per_device,omitempty"`
	Years          int                `json:"years,omitempty"`
	Trials         int                `json:"trials,omitempty"`
	ScrubHours     float64            `json:"scrub_hours,omitempty"`

	Scheme        string  `json:"scheme,omitempty"`
	UpgradeFactor float64 `json:"upgrade_factor,omitempty"`

	Accel string `json:"accel,omitempty"`
	CI    bool   `json:"ci,omitempty"`

	Burst *faultmodel.Burst `json:"burst,omitempty"`

	Mixes            []string `json:"mixes,omitempty"`
	System           string   `json:"system,omitempty"`
	UpgradedFraction float64  `json:"upgraded_fraction,omitempty"`
	Instructions     int64    `json:"instructions,omitempty"`

	DRAM  string `json:"dram,omitempty"`
	Width int    `json:"width,omitempty"`

	Tenants   []workload.Tenant `json:"tenants,omitempty"`
	SharedLLC bool              `json:"shared_llc,omitempty"`
	LLCBytes  int               `json:"llc_bytes,omitempty"`

	Trace string `json:"trace,omitempty"`
}

// DefaultScenario returns the baseline the JSON overlays: the evaluated
// ARCC channel (two 18-device ranks) under 1x field-study rates for seven
// years, chipkill upgrade costs, four-hour scrubs, no simulator sweep.
func DefaultScenario() Scenario {
	return Scenario{
		RateFactor:     1,
		Ranks:          2,
		DevicesPerRank: 18,
		BanksPerDevice: 8,
		Years:          7,
		Trials:         10_000,
		ScrubHours:     4,
		Scheme:         "chipkill",
		System:         "arcc",
	}
}

// ParseScenario decodes a scenario from JSON (strictly: unknown fields are
// errors, so typos fail loudly) and overlays it on DefaultScenario. It
// checks nothing else: Resolve is the one place a scenario is judged.
func ParseScenario(r io.Reader) (Scenario, error) {
	s := DefaultScenario()
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Scenario{}, fmt.Errorf("exhibit: parsing scenario: %w", err)
	}
	// One JSON value describes one scenario; trailing content means a
	// malformed file (e.g. a prematurely closed object) whose remaining
	// fields would otherwise be dropped silently.
	if _, err := dec.Token(); err != io.EOF {
		return Scenario{}, fmt.Errorf("exhibit: parsing scenario: trailing content after the scenario object")
	}
	return s, nil
}

// LoadScenario reads and decodes a scenario JSON file.
func LoadScenario(path string) (Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return Scenario{}, fmt.Errorf("exhibit: %w", err)
	}
	defer f.Close()
	s, err := ParseScenario(f)
	if err != nil {
		return Scenario{}, fmt.Errorf("%w (in %s)", err, path)
	}
	return s, nil
}

// Scenario bounds. Every exhibit stays far inside them; past them a run
// would exhaust memory or hold its worker past any deadline.
const (
	// maxYears bounds the lifetime: each Monte Carlo shard holds one value
	// per year.
	maxYears = 100
	// maxGeometry bounds ranks, devices_per_rank and banks_per_device.
	// A zero-rate scenario skips the arrivals cap below, yet the channel
	// shape still multiplies these counts into page totals and span
	// denominators, which must not overflow.
	maxGeometry = 1 << 16
	// maxExpectedArrivals bounds the mean number of fault arrivals one
	// channel lifetime draws, bursts and rate tilting included: the
	// per-worker arrival buffers are sized from that mean.
	maxExpectedArrivals = 1e4
	// maxLLCBytes bounds llc_bytes, 64x the paper's 1 MB LLC: cache.New
	// allocates each LLC up front, up to four of them per run, and a Go
	// out-of-memory failure is fatal, so a served run could not recover.
	maxLLCBytes = 1 << 26
	// maxInstructions bounds instructions, 100x the paper's 1M per core:
	// a simulator run takes no context, so neither a cancel nor a job
	// deadline can stop one once it starts.
	maxInstructions = 100_000_000
)

// Plan is a checked scenario resolved into the values its runs consume.
// Resolve builds it, so a run neither re-checks nor re-parses a field.
type Plan struct {
	// Scenario is the checked scenario itself.
	Scenario Scenario
	// Rates is the fault mix (Scenario.Rates).
	Rates faultmodel.Rates
	// Shape is the channel shape the geometry implies: the evaluated
	// configuration's two-pages-per-row layout, with a total page count
	// scaled from the ARCC channel by rank count.
	Shape faultmodel.ChannelShape
	// CostFactor is the upgraded-access cost factor (Scenario.CostFactor).
	CostFactor float64
	// Accel is the parsed rare-event acceleration spec.
	Accel reliability.Accel
	// Burst is the correlated-burst model; zero when the field is omitted.
	Burst faultmodel.Burst
	// Tech is the simulator's memory generation and ARCC device width.
	Tech sim.Tech
	// Baseline selects the baseline chipkill system for the simulator
	// sweep instead of ARCC.
	Baseline bool
	// Mixes are the simulator sweep's workload rows in order: the
	// Table 7.3 mixes the scenario names, then its tenants mapped onto the
	// four cores as a mix named "tenants" when it declares any.
	Mixes []workload.Mix
}

// Resolve checks every field of the scenario and resolves it into a Plan.
// It does no file I/O: a trace file is opened when the plan runs.
func (s Scenario) Resolve() (Plan, error) {
	if s.Name == "" {
		return Plan{}, fmt.Errorf("exhibit: scenario needs a name")
	}
	p, err := s.resolve()
	if err != nil {
		return Plan{}, fmt.Errorf("exhibit: scenario %q: %w", s.Name, err)
	}
	return p, nil
}

func (s Scenario) resolve() (Plan, error) {
	switch {
	case !(s.RateFactor >= 0) || math.IsInf(s.RateFactor, 1):
		return Plan{}, fmt.Errorf("rate_factor %v must be finite and non-negative", s.RateFactor)
	case s.Ranks <= 0 || s.DevicesPerRank <= 1 || s.BanksPerDevice <= 0:
		return Plan{}, fmt.Errorf("invalid channel geometry (ranks=%d devices_per_rank=%d banks_per_device=%d)",
			s.Ranks, s.DevicesPerRank, s.BanksPerDevice)
	case s.Ranks > maxGeometry || s.DevicesPerRank > maxGeometry || s.BanksPerDevice > maxGeometry:
		return Plan{}, fmt.Errorf("channel geometry past %d (ranks=%d devices_per_rank=%d banks_per_device=%d)",
			maxGeometry, s.Ranks, s.DevicesPerRank, s.BanksPerDevice)
	case s.Years <= 0 || s.Trials <= 0:
		return Plan{}, fmt.Errorf("years and trials must be positive (got %d, %d)", s.Years, s.Trials)
	case s.Years > maxYears:
		return Plan{}, fmt.Errorf("years %d exceeds %d", s.Years, maxYears)
	case !(s.ScrubHours > 0):
		return Plan{}, fmt.Errorf("scrub_hours must be positive (got %v)", s.ScrubHours)
	case s.UpgradeFactor < 0 || (s.UpgradeFactor > 0 && s.UpgradeFactor < 1):
		return Plan{}, fmt.Errorf("upgrade_factor must be >= 1 (got %v)", s.UpgradeFactor)
	case !(s.UpgradedFraction >= 0 && s.UpgradedFraction <= 1):
		return Plan{}, fmt.Errorf("upgraded_fraction must be in [0,1] (got %v)", s.UpgradedFraction)
	case s.Instructions < 0 || s.Instructions > maxInstructions:
		return Plan{}, fmt.Errorf("instructions %d must be in [0, %d]", s.Instructions, maxInstructions)
	}
	if s.UpgradeFactor == 0 {
		if _, err := schemeFactor(s.Scheme); err != nil {
			return Plan{}, err
		}
	}
	if s.System != "arcc" && s.System != "baseline" {
		return Plan{}, fmt.Errorf("unknown system %q (have arcc, baseline)", s.System)
	}
	accel, err := reliability.ParseAccel(s.Accel)
	if err != nil {
		return Plan{}, err
	}
	for name, fit := range s.FITOverrides {
		if _, err := typeByName(name); err != nil {
			return Plan{}, err
		}
		if !(fit >= 0) || math.IsInf(fit, 1) {
			return Plan{}, fmt.Errorf("%s FIT %v must be finite and non-negative", name, fit)
		}
	}
	var burst faultmodel.Burst
	if s.Burst != nil {
		if err := s.Burst.Validate(); err != nil {
			return Plan{}, err
		}
		burst = *s.Burst
	}
	rates := s.Rates()
	arrivals := faultmodel.ExpectedArrivals(rates, s.Ranks, s.DevicesPerRank, float64(s.Years)) * burst.CapHintFactor()
	if accel.Mode == reliability.AccelTilted {
		arrivals *= accel.Tilt
	}
	if !(arrivals <= maxExpectedArrivals) {
		return Plan{}, fmt.Errorf("%.3g expected fault arrivals per channel lifetime exceeds %g",
			arrivals, float64(maxExpectedArrivals))
	}
	tech, err := sim.ParseTech(s.DRAM, s.Width)
	if err != nil {
		return Plan{}, err
	}
	if s.LLCBytes != 0 && (s.LLCBytes < 2048 || s.LLCBytes > maxLLCBytes || bits.OnesCount(uint(s.LLCBytes)) != 1) {
		return Plan{}, fmt.Errorf("llc_bytes %d must be a power of two in [2048, %d]", s.LLCBytes, maxLLCBytes)
	}
	mixes, err := mixesByName(s.Mixes)
	if err != nil {
		return Plan{}, err
	}
	if len(s.Tenants) > 0 {
		tb, err := workload.TenantBenchmarks(s.Tenants)
		if err != nil {
			return Plan{}, err
		}
		mixes = append(mixes, workload.Mix{Name: "tenants", Benchmarks: tb})
	}
	base := faultmodel.ARCCChannelShape()
	return Plan{
		Scenario: s,
		Rates:    rates,
		Shape: faultmodel.ChannelShape{
			RanksPerChannel: s.Ranks,
			BanksPerDevice:  s.BanksPerDevice,
			PagesPerRow:     base.PagesPerRow,
			TotalPages:      base.TotalPages / base.RanksPerChannel * s.Ranks,
		},
		CostFactor: s.CostFactor(),
		Accel:      accel,
		Burst:      burst,
		Tech:       tech,
		Baseline:   s.System == "baseline",
		Mixes:      mixes,
	}, nil
}

// Rates is the scenario's fault mix: field-study FIT rates scaled by
// RateFactor, with FITOverrides replacing individual types afterwards
// (overrides are absolute, not scaled). An override naming no fault type
// is ignored here; Resolve rejects it.
func (s Scenario) Rates() faultmodel.Rates {
	rates := faultmodel.FieldStudyRates().Scale(s.RateFactor)
	for _, t := range faultmodel.Types() {
		if fit, ok := s.FITOverrides[t.String()]; ok {
			rates[t] = fit
		}
	}
	return rates
}

// CostFactor is the upgraded-access cost factor: UpgradeFactor when set,
// otherwise the scheme's (chipkill 2x, lotecc 4x), and 0 for a scheme
// Resolve rejects.
func (s Scenario) CostFactor() float64 {
	if s.UpgradeFactor > 0 {
		return s.UpgradeFactor
	}
	f, _ := schemeFactor(s.Scheme)
	return f
}

func schemeFactor(scheme string) (float64, error) {
	switch scheme {
	case "chipkill":
		// ARCC on commercial chipkill: an upgraded access touches both
		// channels — double power, half bandwidth.
		return 2, nil
	case "lotecc":
		// ARCC on LOT-ECC: 18 devices instead of 9 plus the extra
		// checksum-line read.
		return lotecc.WorstCaseUpgradedPowerFactor(), nil
	}
	return 0, fmt.Errorf("unknown scheme %q (have chipkill, lotecc)", scheme)
}

func typeByName(name string) (faultmodel.Type, error) {
	for _, t := range faultmodel.Types() {
		if t.String() == name {
			return t, nil
		}
	}
	return 0, fmt.Errorf("unknown fault type %q", name)
}

// mixesByName resolves mix names against Table 7.3.
func mixesByName(names []string) ([]workload.Mix, error) {
	all := workload.Mixes()
	out := make([]workload.Mix, 0, len(names))
	for _, name := range names {
		i := slices.IndexFunc(all, func(m workload.Mix) bool { return m.Name == name })
		if i < 0 {
			return nil, fmt.Errorf("unknown mix %q (Table 7.3 has Mix1..Mix%d)", name, len(all))
		}
		out = append(out, all[i])
	}
	return out, nil
}
