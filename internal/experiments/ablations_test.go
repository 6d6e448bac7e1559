package experiments

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"arcc/internal/cache"
	"arcc/internal/exhibit"
	"arcc/internal/memctrl"
	"arcc/internal/sim"
	"arcc/internal/workload"
)

func TestAblationScrub(t *testing.T) {
	rows := ablationScrub()
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if !r.FourStep {
			t.Errorf("4-step scrubber missed: %s", r.Scenario)
		}
		if strings.Contains(r.Scenario, "hidden") && r.Conventional {
			t.Errorf("conventional scrubber should miss the hidden case: %s", r.Scenario)
		}
		if !strings.Contains(r.Scenario, "hidden") && !r.Conventional {
			t.Errorf("conventional scrubber should catch the visible case: %s", r.Scenario)
		}
	}
	var buf bytes.Buffer
	rows.Fprint(&buf)
	if !strings.Contains(buf.String(), "4-step") {
		t.Fatal("printer broken")
	}
}

func TestAblationLLCPolicy(t *testing.T) {
	r := runQuick(t, ablationLLCPolicy)
	if len(r.Policies) != 2 || len(r.Mixes) != 3 {
		t.Fatalf("shape %v/%v", r.Policies, r.Mixes)
	}
	measured := false
	for mi := range r.Mixes {
		if r.IPCRatio[0][mi] != 1.0 {
			t.Fatalf("shared-recency baseline ratio != 1: %v", r.IPCRatio[0][mi])
		}
		// Independent LRU must not be dramatically better; it is usually
		// equal or slightly worse (paired lines lose protection).
		if r.IPCRatio[1][mi] > 1.05 || r.IPCRatio[1][mi] < 0.80 {
			t.Fatalf("independent-lru ratio %v outside [0.80, 1.05]", r.IPCRatio[1][mi])
		}
		measured = measured || r.IPCRatio[1][mi] != 1
	}
	// A ratio of exactly 1 everywhere means no replacement decision the
	// policies disagree on ever reached the simulated timing.
	if !measured {
		t.Fatalf("independent-lru ratios %v: the policies never differ", r.IPCRatio[1])
	}
	var buf bytes.Buffer
	r.Fprint(&buf)
	if !strings.Contains(buf.String(), "shared-recency") {
		t.Fatal("printer broken")
	}
}

func TestAblationPairing(t *testing.T) {
	r := runQuick(t, ablationPairing)
	measured := false
	for i, ratio := range r.FIFORatio {
		// FIFO synchronisation can only cost performance, and only a little.
		if ratio > 1.02 || ratio < 0.85 {
			t.Fatalf("%s: FIFO/promote ratio %v outside [0.85, 1.02]", r.Mixes[i], ratio)
		}
		measured = measured || ratio < 1
	}
	// A ratio of exactly 1 everywhere means the pairing choice never
	// reached the simulated timing.
	if !measured {
		t.Fatalf("FIFO/promote ratios %v: no mix pays for FIFO synchronisation", r.FIFORatio)
	}
	var buf bytes.Buffer
	r.Fprint(&buf)
	if !strings.Contains(buf.String(), "pairing") {
		t.Fatal("printer broken")
	}
}

// TestSimAblationsFollowSeed: the simulator ablations draw their workload
// streams and page placement from the root seed, so another seed runs
// other simulations. Their reported ratios could still coincide at three
// decimals, so the runs' IPCs are compared.
func TestSimAblationsFollowSeed(t *testing.T) {
	variants := map[string][]simRun{
		"ablation-llc": {
			{system: sim.ARCC, fraction: 1, policy: cache.SharedRecency},
			{system: sim.ARCC, fraction: 1, policy: cache.IndependentLRU},
		},
		"ablation-pairing": {
			{system: sim.ARCC, fraction: 0.5, pairing: memctrl.PairFIFO},
			{system: sim.ARCC, fraction: 0.5, pairing: memctrl.PairPromote},
		},
	}
	mixes := workload.Mixes()[:1]
	for name, variant := range variants {
		ipcs := func(seed int64) []float64 {
			cfg := exhibit.NewConfig(exhibit.WithQuick(true), exhibit.WithSeed(seed))
			var runs []simRun
			for _, r := range variant {
				runs = append(runs, mixRuns(cfg, mixes, r)...)
			}
			results, err := simulate(context.Background(), cfg, runs)
			if err != nil {
				t.Fatal(err)
			}
			var out []float64
			for _, r := range results {
				out = append(out, r.IPCSum)
			}
			return out
		}
		if one, seven := ipcs(1), ipcs(7); reflect.DeepEqual(one, seven) {
			t.Errorf("%s: seed 7 reproduced seed 1's IPCs %v", name, one)
		}
	}
}
