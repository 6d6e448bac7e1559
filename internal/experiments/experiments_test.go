package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"arcc/internal/exhibit"
)

func quick() exhibit.Config { return exhibit.NewConfig(exhibit.WithQuick(true)) }

// runQuick runs an MC-backed exhibit function under a background context
// with the quick profile, failing the test on error.
func runQuick[T any](t *testing.T, f func(context.Context, exhibit.Config) (T, error)) T {
	t.Helper()
	r, err := f(context.Background(), quick())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestTables(t *testing.T) {
	rows := table71()
	if len(rows) != 2 || rows[0].RankSize != 36 || rows[1].RankSize != 18 {
		t.Fatalf("Table 7.1 wrong: %+v", rows)
	}
	// Equal device budget: chan*ranks*rankSize must match.
	if rows[0].Channels*rows[0].Ranks*rows[0].RankSize != rows[1].Channels*rows[1].Ranks*rows[1].RankSize {
		t.Fatal("configurations must use the same total device count")
	}
	if len(table72()) != 12 {
		t.Fatalf("Table 7.2 has %d rows", len(table72()))
	}
	if len(table73()) != 12 {
		t.Fatalf("Table 7.3 has %d mixes", len(table73()))
	}
	t74 := table74()
	if len(t74) != 4 || t74[0].Fraction != 1.0 || t74[1].Fraction != 0.5 ||
		t74[2].Fraction != 1.0/16 || t74[3].Fraction != 1.0/32 {
		t.Fatalf("Table 7.4 wrong: %+v", t74)
	}

	var buf bytes.Buffer
	table71().Fprint(&buf)
	table72().Fprint(&buf)
	table73().Fprint(&buf)
	table74().Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"Table 7.1", "Table 7.2", "Table 7.3", "Table 7.4", "ARCC", "Mix12", "Subbank"} {
		if !strings.Contains(out, want) {
			t.Errorf("printed tables missing %q", want)
		}
	}
}

func TestFig31(t *testing.T) {
	r := runQuick(t, fig31)
	if len(r.Fraction) != 3 || len(r.Fraction[0]) != 7 {
		t.Fatalf("Fig 3.1 shape wrong")
	}
	// Higher rate factors give strictly larger year-7 fractions.
	if !(r.Fraction[0][6] < r.Fraction[1][6] && r.Fraction[1][6] < r.Fraction[2][6]) {
		t.Fatalf("rate factors not ordered: %v %v %v", r.Fraction[0][6], r.Fraction[1][6], r.Fraction[2][6])
	}
	// "Just a few percent" at 1x through year 7.
	if r.Fraction[0][6] > 0.10 {
		t.Fatalf("1x year-7 fraction %v too large", r.Fraction[0][6])
	}
	var buf bytes.Buffer
	r.Fprint(&buf)
	if !strings.Contains(buf.String(), "Figure 3.1") {
		t.Fatal("printer broken")
	}
}

func TestFig61(t *testing.T) {
	r := fig61()
	for fi := range r.Factors {
		for li := range r.Lifespans {
			if r.ARCC[fi][li] <= r.SCCDCD[fi][li] {
				t.Fatalf("ARCC DED must have a (slightly) higher SDC rate than SCCDCD")
			}
			if r.ARCC[fi][li] > 0.1 {
				t.Fatalf("ARCC SDC rate %v per 1000 machine-years not insignificant", r.ARCC[fi][li])
			}
		}
	}
	// Quadratic rate scaling: factor 4 vs 1 is 16x for the two-fault race.
	if ratio := r.ARCC[2][0] / r.ARCC[0][0]; ratio < 15.9 || ratio > 16.1 {
		t.Fatalf("ARCC DED 4x/1x ratio %v, want 16", ratio)
	}
	var buf bytes.Buffer
	r.Fprint(&buf)
	if !strings.Contains(buf.String(), "Figure 6.1") {
		t.Fatal("printer broken")
	}
}

func TestFig71(t *testing.T) {
	r := runQuick(t, fig71)
	if len(r.Mixes) != 12 {
		t.Fatalf("%d mixes", len(r.Mixes))
	}
	// The headline numbers: ~36.7% power reduction, ~+5.9% IPC. Quick
	// runs are noisy; accept generous bands that still pin the shape.
	if r.AvgPowerReduction < 0.25 || r.AvgPowerReduction > 0.50 {
		t.Fatalf("avg power reduction %.1f%%, want 25-50%% (paper: 36.7%%)", r.AvgPowerReduction*100)
	}
	if r.AvgIPCGain < 0.0 || r.AvgIPCGain > 0.20 {
		t.Fatalf("avg IPC gain %.1f%%, want 0-20%% (paper: 5.9%%)", r.AvgIPCGain*100)
	}
	// Power benefits are "relatively uniform across workloads".
	for i, red := range r.PowerReduction {
		if red < 0.15 || red > 0.55 {
			t.Errorf("mix %s power reduction %.1f%% outside uniform band", r.Mixes[i], red*100)
		}
	}
	var buf bytes.Buffer
	r.Fprint(&buf)
	if !strings.Contains(buf.String(), "AVG") {
		t.Fatal("printer broken")
	}
}

func TestFig72(t *testing.T) {
	r := runQuick(t, fig72)
	if len(r.Scenarios) != 4 {
		t.Fatalf("%d scenarios", len(r.Scenarios))
	}
	// Power under faults: >= 1, bounded by worst case, ordered by span.
	for s := range r.Scenarios {
		for m := range r.Mixes {
			v := r.Normalized[s][m]
			if v < 0.97 {
				t.Errorf("%s/%s: power ratio %v below 1", r.Scenarios[s].Name, r.Mixes[m], v)
			}
			if v > r.WorstCase[s]+0.05 {
				t.Errorf("%s/%s: power ratio %v exceeds worst case %v", r.Scenarios[s].Name, r.Mixes[m], v, r.WorstCase[s])
			}
		}
	}
	if !(r.Avg[0] > r.Avg[1] && r.Avg[1] > r.Avg[2] && r.Avg[2] > r.Avg[3]) {
		t.Fatalf("power overhead not ordered lane > device > subbank > column: %v", r.Avg)
	}
}

func TestFig73(t *testing.T) {
	r := runQuick(t, fig73)
	var sawGain, sawLoss bool
	for m := range r.Mixes {
		v := r.Normalized[0][m] // lane fault: all pages upgraded
		if v > 1.0 {
			sawGain = true
		}
		if v < 1.0 {
			sawLoss = true
		}
		if v < 0.5 {
			t.Errorf("%s: IPC ratio %v below the 50%% worst-case bound", r.Mixes[m], v)
		}
	}
	// Fig 7.3's signature: some mixes gain (prefetch), some lose.
	if !sawGain || !sawLoss {
		t.Fatalf("expected both gainers and losers under a lane fault (gain=%v loss=%v)", sawGain, sawLoss)
	}
}

func TestFig74And75(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(context.Context, exhibit.Config) (LifetimeResult, error)
	}{{"Fig74", fig74}, {"Fig75", fig75}} {
		r := runQuick(t, tc.run)
		if len(r.Measured) != 3 || len(r.WorstCase) != 3 {
			t.Fatalf("%s: wrong factor count", tc.name)
		}
		for fi := range r.Factors {
			for y := 0; y < r.Years; y++ {
				meas, worst := r.Measured[fi][y], r.WorstCase[fi][y]
				if meas < -1e-9 || worst < -1e-9 {
					t.Fatalf("%s: negative overhead", tc.name)
				}
				if meas > 0.30 || worst > 0.30 {
					t.Fatalf("%s: overhead beyond 30%% (%v/%v); 'the degradation is small'", tc.name, meas, worst)
				}
			}
			// Growing with years.
			if r.WorstCase[fi][6] < r.WorstCase[fi][0] {
				t.Fatalf("%s: worst-case overhead shrank with age", tc.name)
			}
		}
		// The paper's takeaway: power benefit >= 30% even at year 7, 4x
		// rates. Overhead at 4x year 7 must stay well under the ~37%
		// fault-free benefit.
		if r.WorstCase[2][6] > 0.12 {
			t.Fatalf("%s: 4x year-7 worst-case overhead %v too large", tc.name, r.WorstCase[2][6])
		}
		var buf bytes.Buffer
		r.Fprint(&buf)
		if !strings.Contains(buf.String(), "Figure 7.") {
			t.Fatal("printer broken")
		}
	}
}

func TestFig76(t *testing.T) {
	r := runQuick(t, fig76)
	if r.Measured != nil {
		t.Fatal("Fig 7.6 reports worst case only")
	}
	// Paper: ~1.6% average at 1x over 7 years; <= ~6.3% at 4x.
	at1, at4 := r.WorstCase[0][6], r.WorstCase[2][6]
	if at1 <= 0 || at1 > 0.05 {
		t.Fatalf("1x overhead %v, want around 1.6%%", at1)
	}
	if at4 <= at1 || at4 > 0.15 {
		t.Fatalf("4x overhead %v, want larger but bounded (~6.3%%)", at4)
	}
	var buf bytes.Buffer
	r.Fprint(&buf)
	if !strings.Contains(buf.String(), "LOT-ECC") {
		t.Fatal("printer broken")
	}
}

func TestDeterminism(t *testing.T) {
	a, b := runQuick(t, fig31), runQuick(t, fig31)
	for fi := range a.Fraction {
		for y := range a.Fraction[fi] {
			if a.Fraction[fi][y] != b.Fraction[fi][y] {
				t.Fatal("Fig 3.1 not deterministic")
			}
		}
	}
}

// TestFig7xIdenticalAtAnyParallelism pins the scratch-threaded simulator
// fan-outs to the engine's bit-identical contract: the rendered Fig 7.1 and
// Fig 7.3 exhibits are byte-identical at parallelism 1, 4, and GOMAXPROCS,
// even though each worker reuses one sim.Scratch across its runs.
func TestFig7xIdenticalAtAnyParallelism(t *testing.T) {
	ctx := context.Background()
	render := func(parallel int) (string, string) {
		cfg := exhibit.NewConfig(exhibit.WithQuick(true), exhibit.WithParallel(parallel))
		var b71, b73 bytes.Buffer
		r71, err := fig71(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r71.Fprint(&b71)
		r73, err := fig73(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r73.Fprint(&b73)
		return b71.String(), b73.String()
	}
	want71, want73 := render(1)
	for _, par := range []int{4, 0} {
		got71, got73 := render(par)
		if got71 != want71 {
			t.Errorf("Fig 7.1 drifted at parallelism %d:\n%s\nvs serial:\n%s", par, got71, want71)
		}
		if got73 != want73 {
			t.Errorf("Fig 7.3 drifted at parallelism %d:\n%s\nvs serial:\n%s", par, got73, want73)
		}
	}
}
