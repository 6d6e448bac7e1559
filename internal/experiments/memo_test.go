package experiments

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"arcc/internal/exhibit"
	"arcc/internal/sim"
)

// startedTrials runs an exhibit under ctx and returns its report together
// with the trial count of every engine job it started. For a simulator
// fan-out that count is its number of simulator runs.
func startedTrials(t *testing.T, ctx context.Context, name string) (*exhibit.Report, int) {
	t.Helper()
	var mu sync.Mutex
	started := 0
	progress := func(done, total int) {
		if done == 0 { // a job's start signal
			mu.Lock()
			started += total
			mu.Unlock()
		}
	}
	e, _ := exhibit.Lookup(name)
	r, err := e.Run(ctx, exhibit.NewConfig(exhibit.WithQuick(true), exhibit.WithProgress(progress)))
	if err != nil {
		t.Fatal(err)
	}
	return r, started
}

func renderAllFormats(t *testing.T, r *exhibit.Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, renderer := range []exhibit.Renderer{exhibit.TextRenderer{}, exhibit.JSONRenderer{}, exhibit.CSVRenderer{}} {
		if err := renderer.Render(&buf, r); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestRunMemoSimulatesEachConfigOnce pins the run memo's contract. Under
// one memo ctx, Figs 7.1–7.5 together simulate exactly their 72 distinct
// configurations (12 mixes × baseline, fault-free ARCC and four fault
// fractions), and each report is byte-equal to the same exhibit run with
// no memo. A run without that ctx simulates its full grid again.
func TestRunMemoSimulatesEachConfigOnce(t *testing.T) {
	memoCtx := WithRunMemo(context.Background())
	memo := memoCtx.Value(runMemoKey{}).(map[simRun]sim.Result)
	for _, tc := range []struct {
		name      string
		grid      int // the exhibit's simulator runs without a memo
		simulated int // the runs left to simulate after the exhibits before it
	}{
		{"f7.1", 24, 24}, // baseline and fault-free ARCC per mix
		{"f7.2", 60, 48}, // fault-free ARCC is held from f7.1
		{"f7.3", 60, 0},
		{"f7.4", 60, 0},
		{"f7.5", 60, 0},
	} {
		plain, plainTrials := startedTrials(t, context.Background(), tc.name)
		memoed, memoTrials := startedTrials(t, memoCtx, tc.name)
		// Both runs start the same lifetime Monte Carlos (f7.4/f7.5), so
		// the difference in started trials is the simulator runs the memo
		// saved.
		if got := tc.grid - (plainTrials - memoTrials); got != tc.simulated {
			t.Errorf("%s simulated %d runs under the memo, want %d", tc.name, got, tc.simulated)
		}
		if !bytes.Equal(renderAllFormats(t, memoed), renderAllFormats(t, plain)) {
			t.Errorf("%s: report under the memo differs from the run without it", tc.name)
		}
	}
	if n := len(memo); n != 72 {
		t.Errorf("memo holds %d configurations, want 72", n)
	}

	// Neither a run without a memo nor one under a fresh memo sees the
	// results held above.
	for _, ctx := range []context.Context{context.Background(), WithRunMemo(context.Background())} {
		if _, n := startedTrials(t, ctx, "f7.3"); n != 60 {
			t.Errorf("f7.3 outside the memo ctx simulated %d runs, want its full grid of 60", n)
		}
	}
}
