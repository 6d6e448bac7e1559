package sim

import (
	"bytes"
	"slices"
	"testing"

	"arcc/internal/workload"
)

// mustTech resolves a generation and width the table is known to hold.
func mustTech(t testing.TB, gen string, width int) Tech {
	t.Helper()
	tech, err := ParseTech(gen, width)
	if err != nil {
		t.Fatal(err)
	}
	return tech
}

// techConfig returns a short run on a given generation.
func techConfig(system MemorySystem, tech Tech) Config {
	cfg := DefaultConfig(workload.Mixes()[0], system)
	cfg.InstructionsPerCore = 120_000
	cfg.Tech = tech
	cfg.CPUCyclesPerDRAMCycle = tech.CPR()
	return cfg
}

func TestTechAxisDeterministicAndDistinct(t *testing.T) {
	ddr2 := Run(techConfig(ARCC, Tech{}))
	for _, tc := range []struct {
		gen   string
		width int
	}{{"ddr4", 0}, {"ddr4", 16}, {"ddr5", 0}, {"ddr5", 4}} {
		tech := mustTech(t, tc.gen, tc.width)
		a := Run(techConfig(ARCC, tech))
		b := Run(techConfig(ARCC, tech))
		if a != b {
			t.Fatalf("%v x%d: nondeterministic:\n%+v\n%+v", tc.gen, tc.width, a, b)
		}
		if a == ddr2 {
			t.Fatalf("%v x%d: identical to DDR2 — tech axis not wired", tc.gen, tc.width)
		}
		if a.IPCSum <= 0 || a.PowerMW <= 0 {
			t.Fatalf("%v x%d: degenerate result %+v", tc.gen, tc.width, a)
		}
	}
}

func TestTechZeroValueMatchesLegacyDDR2(t *testing.T) {
	// The zero Tech must book byte-identically to the pre-axis simulator,
	// including through a scratch that ran a DDR5 config in between (cache
	// keyed on tech, not just system).
	s := NewScratch()
	ref := RunWith(techConfig(ARCC, Tech{}), s)
	RunWith(techConfig(ARCC, mustTech(t, "ddr5", 0)), s)
	again := RunWith(techConfig(ARCC, Tech{}), s)
	if ref != again {
		t.Fatalf("legacy DDR2 result changed after a DDR5 run on the same scratch:\n%+v\n%+v", ref, again)
	}
	// DDR2 x8 and DDR2 with the default width are the zero Tech.
	for _, width := range []int{0, 8} {
		tech := mustTech(t, "ddr2", width)
		if tech != (Tech{}) {
			t.Fatalf("ParseTech(ddr2, %d) = %#v, want the zero Tech", width, tech)
		}
		if w8 := Run(techConfig(ARCC, tech)); w8 != ref {
			t.Fatalf("DDR2 x%d differs from zero Tech:\n%+v\n%+v", width, w8, ref)
		}
	}
}

// TestTechRejectsUnsupported: ParseTech accepts exactly DDR2 x8 and
// DDR4/DDR5 x4, x8 and x16 (width 0 meaning x8), names trimmed and in any
// case ("" meaning ddr2), and nothing else.
func TestTechRejectsUnsupported(t *testing.T) {
	accepted := map[string][]int{
		"ddr2": {0, 8},
		"ddr4": {0, 4, 8, 16},
		"ddr5": {0, 4, 8, 16},
	}
	names := map[string]string{
		"": "ddr2", "ddr2": "ddr2", "DDR4": "ddr4", " ddr5 ": "ddr5", "ddr3": "", "lpddr5": "",
	}
	for name, gen := range names {
		for _, width := range []int{-8, 0, 4, 8, 12, 16, 32} {
			want := slices.Contains(accepted[gen], width)
			tech, err := ParseTech(name, width)
			if (err == nil) != want {
				t.Errorf("ParseTech(%q, %d): err %v, want accepted=%v", name, width, err, want)
				continue
			}
			if want && generations[tech.gen].name != gen {
				t.Errorf("ParseTech(%q, %d) resolved to %s, want %s", name, width, generations[tech.gen].name, gen)
			}
		}
	}
}

// TestGenerationTable: every row of the technology table has a distinct
// name, builds the x4 baseline and at least one ARCC width, and gives each
// width a powered device profile on the row's one clock and enough
// devices, and no more, to cover the access bus the x4 row spans.
func TestGenerationTable(t *testing.T) {
	seen := map[string]bool{}
	for _, g := range generations {
		if g.name == "" || seen[g.name] {
			t.Errorf("row name %q is empty or repeated", g.name)
		}
		seen[g.name] = true
		base, ok := g.widths[4]
		if !ok {
			t.Errorf("%s: no x4 width for the baseline", g.name)
			continue
		}
		bus, arcc := base.devices*4, false
		for width, r := range g.widths {
			arcc = arcc || r.arcc
			if want := (bus + width - 1) / width; r.devices != want {
				t.Errorf("%s x%d: %d devices, want %d to cover a %d-bit bus", g.name, width, r.devices, want, bus)
			}
			if r.power.TCK != base.power.TCK || r.power.TCK <= 0 || r.power.VDD <= 0 || r.power.IDD4R <= 0 {
				t.Errorf("%s x%d: power profile %+v off the row's %.3f ns clock or unpowered", g.name, width, r.power, base.power.TCK)
			}
		}
		if !arcc {
			t.Errorf("%s: no ARCC width", g.name)
		}
		if g.cpr <= 0 || g.bankGroups <= 0 || g.banksPerGroup <= 0 || g.burstClocks <= 0 {
			t.Errorf("%s: degenerate row %+v", g.name, g)
		}
	}
	if !generations[0].widths[8].arcc {
		t.Error("row 0 has no x8 ARCC width, so the zero Tech names no row")
	}
}

// TestTechShapes pins the controller every built (tech, system) pair gets:
// the baseline is one x4 rank per channel and ARCC two ranks of the
// Tech's width.
func TestTechShapes(t *testing.T) {
	cases := []struct {
		gen                                  string
		width                                int
		system                               MemorySystem
		ranks, devices, banks, groups, beats int
	}{
		{"ddr2", 8, ARCC, 2, 18, 8, 1, 4},
		{"ddr2", 8, Baseline, 1, 36, 8, 1, 4},
		{"ddr4", 4, ARCC, 2, 18, 16, 4, 8},
		{"ddr4", 8, ARCC, 2, 9, 16, 4, 8},
		{"ddr4", 16, ARCC, 2, 5, 16, 4, 8},
		{"ddr4", 8, Baseline, 1, 18, 16, 4, 8},
		{"ddr5", 4, ARCC, 2, 10, 32, 8, 16},
		{"ddr5", 8, ARCC, 2, 5, 32, 8, 16},
		{"ddr5", 16, ARCC, 2, 3, 32, 8, 16},
		{"ddr5", 8, Baseline, 1, 10, 32, 8, 16},
	}
	for _, c := range cases {
		mem, _ := NewScratch().memorySystem(techConfig(c.system, mustTech(t, c.gen, c.width)))
		got := mem.Config()
		if got.Channels != 2 || got.RanksPerChannel != c.ranks || got.DevicesPerAccess != c.devices ||
			got.BanksPerRank != c.banks || got.BankGroups != c.groups || got.BurstBeats != c.beats {
			t.Errorf("%s x%d %v: controller %+v, want %d ranks, %d devices, %d banks in %d groups, %d beats",
				c.gen, c.width, c.system, got, c.ranks, c.devices, c.banks, c.groups, c.beats)
		}
	}
}

func TestTechCPR(t *testing.T) {
	for _, tc := range []struct {
		gen  string
		want int64
	}{
		{"ddr2", 9},
		{"ddr4", 3},
		{"ddr5", 1},
	} {
		if got := mustTech(t, tc.gen, 0).CPR(); got != tc.want {
			t.Errorf("%v: CPR = %d, want %d", tc.gen, got, tc.want)
		}
	}
}

func TestDDR5ARCCStillSavesPower(t *testing.T) {
	// The paper's mechanism — relaxed accesses touch fewer devices — must
	// survive the generation change, not just the DDR2 calibration.
	ddr5 := mustTech(t, "ddr5", 0)
	arcc := Run(techConfig(ARCC, ddr5))
	base := Run(techConfig(Baseline, ddr5))
	if arcc.PowerMW >= base.PowerMW {
		t.Fatalf("DDR5 ARCC power %.2f mW >= baseline %.2f mW", arcc.PowerMW, base.PowerMW)
	}
}

func TestSharedLLCContention(t *testing.T) {
	// Four instances of a tenant whose 768 KB working set fits a private
	// 1 MB LLC but whose combined 3 MB cannot fit one shared 1 MB LLC.
	base := shortConfig(0, ARCC)
	base.Mix = tenantMix(t, workload.Tenant{Benchmark: "mcf2006", FootprintLines: 12288})
	private := Run(base)

	shared := base
	shared.SharedLLC = true
	a := Run(shared)
	b := Run(shared)
	if a != b {
		t.Fatalf("shared-LLC run nondeterministic:\n%+v\n%+v", a, b)
	}
	if a.LLCHitRate >= private.LLCHitRate {
		t.Fatalf("shared 1MB hit rate %.4f >= private 4x1MB %.4f; contention not modelled", a.LLCHitRate, private.LLCHitRate)
	}
	// Giving the shared LLC the same total capacity recovers most of it.
	bigShared := shared
	bigShared.LLCBytes = 4 << 20
	c := Run(bigShared)
	if c.LLCHitRate <= a.LLCHitRate {
		t.Fatalf("4MB shared hit rate %.4f <= 1MB shared %.4f", c.LLCHitRate, a.LLCHitRate)
	}
}

// tenantMix maps tenants onto the four cores as a scenario's tenants row
// does.
func tenantMix(t *testing.T, tenants ...workload.Tenant) workload.Mix {
	t.Helper()
	b, err := workload.TenantBenchmarks(tenants)
	if err != nil {
		t.Fatal(err)
	}
	return workload.Mix{Name: "tenants", Benchmarks: b}
}

func TestTenantsOverrideMix(t *testing.T) {
	cfg := shortConfig(0, ARCC)
	cfg.Mix = tenantMix(t, workload.Tenant{Benchmark: "mcf2006"}, workload.Tenant{Benchmark: "swim"})
	a := Run(cfg)
	b := Run(cfg)
	if a != b {
		t.Fatalf("tenant run nondeterministic:\n%+v\n%+v", a, b)
	}
	if a == Run(shortConfig(0, ARCC)) {
		t.Fatal("tenants did not change the run; mix override not wired")
	}
	// A footprint override must change cache behaviour.
	cfg2 := cfg
	cfg2.Mix = tenantMix(t, workload.Tenant{Benchmark: "mcf2006", FootprintLines: 1 << 26}, workload.Tenant{Benchmark: "swim"})
	if c := Run(cfg2); c.LLCHitRate == a.LLCHitRate && c.MemReads == a.MemReads {
		t.Fatal("footprint override had no effect")
	}
}

func TestTraceSourcesDriveSim(t *testing.T) {
	// Record a short trace per core, then run the simulator twice from
	// clones of the same loaded traces: results must be identical, and a
	// trace-driven run must match the equivalent synthetic run it was
	// recorded from.
	cfg := shortConfig(0, ARCC)
	ref := Run(cfg)

	var traces [4]*workload.TraceSource
	for i := range traces {
		b := cfg.Mix.Benchmarks[i]
		var base uint64
		for j := 0; j < i; j++ {
			base += uint64(cfg.Mix.Benchmarks[j].FootprintLines)
			base = (base + 63) &^ 63
		}
		s := b.NewStream(cfg.Seed+int64(i)*7919, base)
		var buf bytes.Buffer
		// Generously more accesses than the run consumes.
		if _, err := workload.Record(&buf, s, 600_000); err != nil {
			t.Fatal(err)
		}
		src, err := workload.LoadTrace(&buf)
		if err != nil {
			t.Fatal(err)
		}
		traces[i] = src
	}

	run := func() Result {
		c := cfg
		for i := range traces {
			c.Sources[i] = traces[i].Clone()
		}
		return Run(c)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("trace-driven runs diverge:\n%+v\n%+v", a, b)
	}
	if a != ref {
		t.Fatalf("trace replay differs from the synthetic run it recorded:\n%+v\n%+v", a, ref)
	}
}
