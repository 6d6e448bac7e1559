package sim

import (
	"bytes"
	"slices"
	"testing"

	"arcc/internal/dram"
	"arcc/internal/workload"
)

// mustTech resolves a generation and width the table is known to hold.
func mustTech(t testing.TB, gen dram.Generation, width int) Tech {
	t.Helper()
	tech, err := NewTech(gen, width)
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
		gen   dram.Generation
		width int
	}{{dram.DDR4, 0}, {dram.DDR4, 16}, {dram.DDR5, 0}, {dram.DDR5, 4}} {
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
	RunWith(techConfig(ARCC, mustTech(t, dram.DDR5, 0)), s)
	again := RunWith(techConfig(ARCC, Tech{}), s)
	if ref != again {
		t.Fatalf("legacy DDR2 result changed after a DDR5 run on the same scratch:\n%+v\n%+v", ref, again)
	}
	// DDR2 x8 and DDR2 with the default width are the zero Tech.
	for _, width := range []int{0, 8} {
		tech := mustTech(t, dram.DDR2, width)
		if tech != (Tech{}) {
			t.Fatalf("NewTech(DDR2, %d) = %#v, want the zero Tech", width, tech)
		}
		if w8 := Run(techConfig(ARCC, tech)); w8 != ref {
			t.Fatalf("DDR2 x%d differs from zero Tech:\n%+v\n%+v", width, w8, ref)
		}
	}
}

// TestTechRejectsUnsupported: NewTech accepts exactly DDR2 x8 and DDR4/DDR5
// x4, x8 and x16 (width 0 meaning x8), and nothing else.
func TestTechRejectsUnsupported(t *testing.T) {
	accepted := map[dram.Generation][]int{
		dram.DDR2: {0, 8},
		dram.DDR4: {0, 4, 8, 16},
		dram.DDR5: {0, 4, 8, 16},
	}
	for _, gen := range []dram.Generation{dram.DDR2, dram.DDR4, dram.DDR5, dram.Generation(7)} {
		for _, width := range []int{-8, 0, 4, 8, 12, 16, 32} {
			want := slices.Contains(accepted[gen], width)
			if _, err := NewTech(gen, width); (err == nil) != want {
				t.Errorf("NewTech(%v, %d): err %v, want accepted=%v", gen, width, err, want)
			}
		}
	}
}

// TestGenerationTable: every width a table row builds — x4 for the
// baseline and each ARCC width — has a dram organisation and a power
// profile, which memorySystem relies on.
func TestGenerationTable(t *testing.T) {
	for gen, g := range generations {
		for _, width := range append([]int{4}, g.arccWidths...) {
			if _, err := dram.OrgFor(gen, width); err != nil {
				t.Errorf("%v x%d: %v", gen, width, err)
			}
			if _, ok := g.devices[width]; !ok {
				t.Errorf("%v x%d: no power profile", gen, width)
			}
		}
	}
}

func TestTechCPR(t *testing.T) {
	for _, tc := range []struct {
		gen  dram.Generation
		want int64
	}{
		{dram.DDR2, 9},
		{dram.DDR4, 3},
		{dram.DDR5, 1},
	} {
		if got := mustTech(t, tc.gen, 0).CPR(); got != tc.want {
			t.Errorf("%v: CPR = %d, want %d", tc.gen, got, tc.want)
		}
	}
}

func TestDDR5ARCCStillSavesPower(t *testing.T) {
	// The paper's mechanism — relaxed accesses touch fewer devices — must
	// survive the generation change, not just the DDR2 calibration.
	ddr5 := mustTech(t, dram.DDR5, 0)
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
