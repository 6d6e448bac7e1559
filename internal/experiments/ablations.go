package experiments

import (
	"context"
	"io"
	"math/rand"

	"arcc/internal/cache"
	"arcc/internal/core"
	"arcc/internal/dram"
	"arcc/internal/exhibit"
	"arcc/internal/mc"
	"arcc/internal/memctrl"
	"arcc/internal/scrub"
	"arcc/internal/sim"
	"arcc/internal/workload"
)

// This file holds the ablation studies DESIGN.md calls out: each isolates
// one design decision of the paper and quantifies what it buys.

// ScrubAblationRow reports fault-detection coverage of the two scrubbing
// algorithms for one fault situation.
type ScrubAblationRow struct {
	Scenario     string
	FourStep     bool // fault found by the 4-step scrubber
	Conventional bool // fault found by the conventional scrubber
}

// ScrubAblationResult holds the rows of the scrubber coverage ablation.
type ScrubAblationResult []ScrubAblationRow

// ablationScrub compares the 4-step and conventional scrubbers' detection
// coverage across fault situations, including the hidden stuck-at case that
// motivates the §4.2.2 hardening. Results are functional (real codewords).
func ablationScrub() ScrubAblationResult {
	type scenario struct {
		name    string
		fault   dram.Fault
		content byte // fill pattern stored before the fault appears
	}
	scenarios := []scenario{
		{"stuck-at-1 device, zero-filled data", dram.Fault{Device: 3, Scope: dram.ScopeDevice, Mode: dram.StuckAt1}, 0x00},
		{"stuck-at-0 device, zero-filled data (hidden)", dram.Fault{Device: 3, Scope: dram.ScopeDevice, Mode: dram.StuckAt0}, 0x00},
		{"stuck-at-1 device, one-filled data (hidden)", dram.Fault{Device: 3, Scope: dram.ScopeDevice, Mode: dram.StuckAt1}, 0xFF},
		{"wrong-data (decoder) fault", dram.Fault{Device: 3, Scope: dram.ScopeRow, Mode: dram.WrongData, Bank: 0, Row: 0}, 0x5A},
		{"stuck-at-0 bank, mixed data", dram.Fault{Device: 3, Scope: dram.ScopeBank, Mode: dram.StuckAt0, Bank: 0}, 0x5A},
	}
	var rows ScrubAblationResult
	for _, sc := range scenarios {
		row := ScrubAblationRow{Scenario: sc.name}
		for _, algo := range []scrub.Algorithm{scrub.FourStep, scrub.Conventional} {
			mem := core.New(core.Config{Pages: 4, RanksPerChannel: 1, BanksPerDevice: 2, RowsPerBank: 1})
			mem.RelaxAll()
			line := make([]byte, core.LineBytes)
			for i := range line {
				line[i] = sc.content
			}
			for page := 0; page < mem.Pages(); page++ {
				for l := 0; l < core.LinesPerPage; l++ {
					if err := mem.WriteLine(page, l, line); err != nil {
						panic(err)
					}
				}
			}
			mem.InjectFault(0, 0, sc.fault)
			s := scrub.New(mem, algo)
			found := len(s.FullScrub()) > 0
			if algo == scrub.FourStep {
				row.FourStep = found
			} else {
				row.Conventional = found
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// Fprint renders the scrubber coverage comparison.
func (rows ScrubAblationResult) Fprint(w io.Writer) {
	fprintf(w, "Ablation: scrubber fault-detection coverage (4-step vs conventional, §4.2.2)\n")
	fprintf(w, "%-48s %-9s %-12s\n", "Scenario", "4-step", "conventional")
	for _, r := range rows {
		fprintf(w, "%-48s %-9v %-12v\n", r.Scenario, r.FourStep, r.Conventional)
	}
}

// upgradedIPCs runs every mix with the given fraction of pages upgraded
// under each of n variants of the ARCC config (set applies variant v) and
// returns the IPCs, variant-major. Every run takes the root seed, and the
// runs fan out across the engine's workers.
func upgradedIPCs(ctx context.Context, cfg exhibit.Config, mixes []workload.Mix, fraction float64, n int, set func(c *sim.Config, v int)) ([]float64, error) {
	return mc.MapScratchCtx(ctx, n*len(mixes), cfg.SeedOrDefault(), cfg.SimOptions(), sim.NewScratch,
		func(_ *rand.Rand, i int, s *sim.Scratch) float64 {
			c := sim.DefaultConfig(mixes[i%len(mixes)], sim.ARCC)
			c.InstructionsPerCore = instructions(cfg)
			c.UpgradedFraction = fraction
			c.Seed = cfg.SeedOrDefault()
			set(&c, i/len(mixes))
			return sim.RunWith(c, s).IPCSum
		})
}

// PolicyAblationResult compares LLC replacement policies for upgraded pairs
// under heavy upgrade pressure.
type PolicyAblationResult struct {
	Mixes []string
	// IPCRatio[p][m] is policy p's IPC relative to SharedRecency for mix m,
	// with every page upgraded (lane-fault pressure).
	Policies []string
	IPCRatio [][]float64
}

// quickLLCBytes is each core's LLC in the quick LLC-policy ablation. The
// policies differ only in which way of a full set they evict, and a quick
// run's 150K instructions per core never fill a set of the 1 MB LLC, so
// both policies would time alike. The quick run shrinks the LLC with its
// instruction count (1 MB x 150K/1M, rounded down to a power of two) so
// that upgraded pairs are evicted as at full scale.
const quickLLCBytes = 128 << 10

// ablationLLCPolicy quantifies the §4.2.3 design choice: shared-recency
// paired replacement versus independent LRU, measured through the full
// simulator with all pages upgraded (on a quickLLCBytes LLC under the
// quick profile). Each run is seeded from its config alone, so the ratios
// are identical at any parallelism, and row 0 — the shared-recency
// baseline divided by itself — is exactly 1.
func ablationLLCPolicy(ctx context.Context, cfg exhibit.Config) (PolicyAblationResult, error) {
	res := PolicyAblationResult{Policies: []string{"shared-recency", "independent-lru"}}
	policies := []cache.Policy{cache.SharedRecency, cache.IndependentLRU}
	mixes := []workload.Mix{workload.Mixes()[0], workload.Mixes()[9], workload.Mixes()[11]}
	for _, mix := range mixes {
		res.Mixes = append(res.Mixes, mix.Name)
	}
	ipcs, err := upgradedIPCs(ctx, cfg, mixes, 1, len(policies), func(c *sim.Config, v int) {
		c.LLCPolicy = policies[v]
		if cfg.Quick {
			c.LLCBytes = quickLLCBytes
		}
	})
	if err != nil {
		return PolicyAblationResult{}, err
	}
	for pi := range policies {
		row := make([]float64, len(mixes))
		for mi := range mixes {
			row[mi] = ipcs[pi*len(mixes)+mi] / ipcs[mi] // vs the shared-recency run of the same mix
		}
		res.IPCRatio = append(res.IPCRatio, row)
	}
	return res, nil
}

// Fprint renders the LLC policy ablation.
func (r PolicyAblationResult) Fprint(w io.Writer) {
	fprintf(w, "Ablation: LLC replacement for upgraded pairs (IPC vs shared-recency, all pages upgraded, §4.2.3)\n")
	fprintf(w, "%-18s", "Policy")
	for _, m := range r.Mixes {
		fprintf(w, " %9s", m)
	}
	fprintf(w, "\n")
	for pi, p := range r.Policies {
		fprintf(w, "%-18s", p)
		for mi := range r.Mixes {
			fprintf(w, " %9.3f", r.IPCRatio[pi][mi])
		}
		fprintf(w, "\n")
	}
}

// PairingAblationResult compares the §4.2.4 sub-line pairing designs.
type PairingAblationResult struct {
	Mixes []string
	// FIFORatio[m] is PairFIFO IPC / PairPromote IPC with half the pages
	// upgraded.
	FIFORatio []float64
}

// ablationPairing measures the cost of the simpler strict-FIFO pairing
// design relative to pointer promotion with half the pages upgraded. With
// every page upgraded each access books both channels alike, so they never
// drift apart and FIFO's wait for both banks never binds; relaxed accesses
// in between let the channels' bank timings diverge.
func ablationPairing(ctx context.Context, cfg exhibit.Config) (PairingAblationResult, error) {
	var res PairingAblationResult
	pairings := []memctrl.Pairing{memctrl.PairFIFO, memctrl.PairPromote}
	mixes := []workload.Mix{workload.Mixes()[0], workload.Mixes()[9]}
	for _, mix := range mixes {
		res.Mixes = append(res.Mixes, mix.Name)
	}
	ipcs, err := upgradedIPCs(ctx, cfg, mixes, 0.5, len(pairings), func(c *sim.Config, v int) { c.Pairing = pairings[v] })
	if err != nil {
		return PairingAblationResult{}, err
	}
	for mi := range mixes {
		res.FIFORatio = append(res.FIFORatio, ipcs[mi]/ipcs[len(mixes)+mi])
	}
	return res, nil
}

// Fprint renders the pairing ablation.
func (r PairingAblationResult) Fprint(w io.Writer) {
	fprintf(w, "Ablation: sub-line pairing design (FIFO IPC / pointer-promotion IPC, half the pages upgraded, §4.2.4)\n")
	for i, m := range r.Mixes {
		fprintf(w, "%-8s %6.3f\n", m, r.FIFORatio[i])
	}
}
