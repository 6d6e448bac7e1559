package sim

import (
	"testing"

	"arcc/internal/workload"
)

// shortConfig returns a config small enough for unit tests.
func shortConfig(mixIdx int, system MemorySystem) Config {
	cfg := DefaultConfig(workload.Mixes()[mixIdx], system)
	cfg.InstructionsPerCore = 150_000
	return cfg
}

func TestRunDeterministic(t *testing.T) {
	a := Run(shortConfig(0, ARCC))
	b := Run(shortConfig(0, ARCC))
	if a != b {
		t.Fatalf("same config, different results:\n%+v\n%+v", a, b)
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	cfg := shortConfig(0, ARCC)
	a := Run(cfg)
	cfg.Seed = 999
	b := Run(cfg)
	if a.IPCSum == b.IPCSum && a.MemReads == b.MemReads {
		t.Fatal("different seeds produced identical runs; randomness not plumbed")
	}
}

func TestARCCSavesPowerFaultFree(t *testing.T) {
	// The headline mechanism of Fig 7.1: fault-free ARCC must land well
	// below the baseline in power on every mix we sample.
	for _, mixIdx := range []int{0, 5, 9} {
		arcc := Run(shortConfig(mixIdx, ARCC))
		base := Run(shortConfig(mixIdx, Baseline))
		reduction := 1 - arcc.PowerMW/base.PowerMW
		if reduction < 0.20 || reduction > 0.55 {
			t.Errorf("mix %d: power reduction %.1f%%, want within [20%%, 55%%]", mixIdx+1, reduction*100)
		}
	}
}

func TestARCCPerformanceAtLeastComparable(t *testing.T) {
	// Fig 7.1: ARCC averaged +5.9% IPC from rank parallelism. Individual
	// mixes vary; none should collapse.
	for _, mixIdx := range []int{0, 9} {
		arcc := Run(shortConfig(mixIdx, ARCC))
		base := Run(shortConfig(mixIdx, Baseline))
		ratio := arcc.IPCSum / base.IPCSum
		if ratio < 0.97 {
			t.Errorf("mix %d: ARCC IPC ratio %.3f, want >= 0.97", mixIdx+1, ratio)
		}
	}
}

func TestUpgradedFractionRaisesPowerMonotonically(t *testing.T) {
	cfg := shortConfig(0, ARCC)
	prev := Run(cfg).PowerMW
	for _, f := range []float64{1.0 / 32, 1.0 / 16, 0.5, 1.0} {
		cfg.UpgradedFraction = f
		p := Run(cfg).PowerMW
		if p < prev*0.999 {
			t.Fatalf("power not monotone in upgraded fraction: f=%v gives %v after %v", f, p, prev)
		}
		prev = p
	}
}

func TestWorstCasePowerBound(t *testing.T) {
	// Fig 7.2's "worst case est.": the power increase cannot exceed the
	// upgraded page fraction (that bound assumes zero spatial reuse; real
	// workloads with locality do better).
	cfg := shortConfig(0, ARCC)
	clean := Run(cfg).PowerMW
	for _, f := range []float64{0.5, 1.0} {
		cfg.UpgradedFraction = f
		ratio := Run(cfg).PowerMW / clean
		if ratio > 1+f+0.02 {
			t.Errorf("f=%v: power ratio %.3f exceeds worst-case bound %.3f", f, ratio, 1+f)
		}
		if ratio < 1.0 {
			t.Errorf("f=%v: power ratio %.3f below 1; faults cannot save power", f, ratio)
		}
	}
}

func TestSpatialLocalityDecidesFaultPerformance(t *testing.T) {
	// Fig 7.3: with every page upgraded (lane fault), high-spatial mixes
	// benefit from the 128 B implicit prefetch while pointer-chasing
	// mixes lose performance.
	spatial := shortConfig(0, ARCC) // Mix1: mesa/leslie3d/GemsFDTD/fma3d
	chase := shortConfig(9, ARCC)   // Mix10: mcf/libquantum/omnetpp/astar

	spatialClean, chaseClean := Run(spatial), Run(chase)
	spatial.UpgradedFraction = 1
	chase.UpgradedFraction = 1
	spatialFault, chaseFault := Run(spatial), Run(chase)

	spatialRatio := spatialFault.IPCSum / spatialClean.IPCSum
	chaseRatio := chaseFault.IPCSum / chaseClean.IPCSum
	if spatialRatio <= chaseRatio {
		t.Fatalf("spatial mix ratio %.3f should exceed pointer-chasing ratio %.3f", spatialRatio, chaseRatio)
	}
	if chaseRatio < 0.5 {
		t.Fatalf("worst-case perf loss beyond the 50%% bandwidth bound: %.3f", chaseRatio)
	}
}

func TestUpgradedAccessFractionTracksPageFraction(t *testing.T) {
	cfg := shortConfig(0, ARCC)
	cfg.UpgradedFraction = 0.5
	r := Run(cfg)
	if r.UpgradedAccessFraction < 0.3 || r.UpgradedAccessFraction > 0.7 {
		t.Fatalf("upgraded access fraction %.3f far from page fraction 0.5", r.UpgradedAccessFraction)
	}
	cfg.UpgradedFraction = 0
	if r := Run(cfg); r.UpgradedAccessFraction != 0 {
		t.Fatalf("fault-free run served %.3f upgraded accesses", r.UpgradedAccessFraction)
	}
}

func TestBaselineIgnoresUpgradedFraction(t *testing.T) {
	cfg := shortConfig(0, Baseline)
	a := Run(cfg)
	cfg.UpgradedFraction = 1
	b := Run(cfg)
	if a.PowerMW != b.PowerMW || a.IPCSum != b.IPCSum {
		t.Fatal("baseline must not react to the upgraded fraction")
	}
}

func TestRunPanicsOnBadConfig(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"zero instructions": func(c *Config) { c.InstructionsPerCore = 0 },
		"bad fraction":      func(c *Config) { c.UpgradedFraction = 1.5 },
		"zero llc":          func(c *Config) { c.LLCBytes = 0 },
		"bad system":        func(c *Config) { c.System = MemorySystem(9) },
	} {
		cfg := shortConfig(0, ARCC)
		mutate(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			Run(cfg)
		}()
	}
}

func TestPerCoreIPCsPositiveAndBounded(t *testing.T) {
	r := Run(shortConfig(3, ARCC))
	for i, ipc := range r.PerCoreIPC {
		if ipc <= 0 || ipc > 2.0 {
			t.Fatalf("core %d IPC %v outside (0, 2]", i, ipc)
		}
	}
	if r.MemReads == 0 {
		t.Fatal("no memory reads recorded")
	}
	if r.ElapsedDRAMCycles <= 0 {
		t.Fatal("no elapsed time")
	}
}

func TestLongerRunsProduceWritebacks(t *testing.T) {
	cfg := shortConfig(11, ARCC) // Mix12 contains lbm (45% writes)
	cfg.InstructionsPerCore = 600_000
	r := Run(cfg)
	if r.MemWrites == 0 {
		t.Fatal("dirty evictions never reached memory")
	}
}

func TestMemorySystemString(t *testing.T) {
	if Baseline.String() != "baseline" || ARCC.String() != "arcc" {
		t.Fatal("MemorySystem strings wrong")
	}
}

func TestTraceSourceReproducesStreamRun(t *testing.T) {
	// Record each core's stream, replay the traces through the simulator,
	// and require the identical result — the trace path is faithful.
	cfg := shortConfig(2, ARCC)
	direct := Run(cfg)

	// Rebuild the same streams and capture generously more accesses than
	// the run consumes.
	replay := cfg
	base := uint64(0)
	for i := range replay.Sources {
		b := cfg.Mix.Benchmarks[i]
		s := b.NewStream(cfg.Seed+int64(i)*7919, base)
		accesses := make([]workload.Access, 0, 200000)
		for j := 0; j < 200000; j++ {
			accesses = append(accesses, s.Next())
		}
		replay.Sources[i] = workload.NewTraceSource(accesses)
		base += uint64(b.FootprintLines)
		base = (base + 63) &^ 63
	}
	replayed := Run(replay)
	if direct != replayed {
		t.Fatalf("trace replay diverged:\n direct   %+v\n replayed %+v", direct, replayed)
	}
}
