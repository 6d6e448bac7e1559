package mc

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// slowJob builds a job whose trials block on a gate channel after
// signalling that work started, so a test can cancel mid-fan-out with
// shards still pending.
func slowJob(trials int, started *atomic.Int64, gate <-chan struct{}) Job {
	return Job{
		Trials: trials,
		Seed:   1,
		NewAcc: func() Accumulator { return &countAcc{} },
		Trial: func(_ *rand.Rand, _ int, acc Accumulator) {
			started.Add(1)
			<-gate
			acc.(*countAcc).n++
		},
	}
}

type countAcc struct{ n int }

func (a *countAcc) Merge(other Accumulator) { a.n += other.(*countAcc).n }

// TestRunCtxCancelStopsEarly cancels a parallel run while its first
// shards are in flight and asserts the engine returns ErrCanceled
// promptly — without completing the whole fan-out — and that no worker
// goroutines are left behind.
func TestRunCtxCancelStopsEarly(t *testing.T) {
	const trials = 64 * 100 // 100 shards at the default shard size
	baseline := runtime.NumGoroutine()

	var started atomic.Int64
	gate := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	resCh := make(chan error, 1)
	go func() {
		_, err := RunCtx(ctx, slowJob(trials, &started, gate), Options{Parallelism: 4})
		resCh <- err
	}()

	// Wait for the pool to be mid-shard, then cancel and release the gate
	// so in-flight trials can finish.
	for started.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	close(gate)

	select {
	case err := <-resCh:
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("RunCtx error = %v, want ErrCanceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunCtx did not return after cancel")
	}
	// Cancellation cuts the run short: at most the in-flight shards (one
	// per worker, 64 trials each) plus a scheduling margin may have run.
	if got := started.Load(); got >= trials {
		t.Fatalf("all %d trials ran despite cancellation", got)
	}

	// No goroutine leaks: the pool drains and exits.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // encourage exited goroutines to be reaped promptly
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRunCtxCancelSerial covers the inline Parallelism=1 path: a context
// cancelled between shards stops the loop at the next shard boundary.
func TestRunCtxCancelSerial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	job := Job{
		Trials: 10 * DefaultShardSize,
		Seed:   1,
		NewAcc: func() Accumulator { return &countAcc{} },
		Trial: func(_ *rand.Rand, trial int, acc Accumulator) {
			ran++
			if trial == DefaultShardSize-1 {
				cancel() // mid-first-shard: the shard finishes, the next never starts
			}
			acc.(*countAcc).n++
		},
	}
	acc, err := RunCtx(ctx, job, Options{Parallelism: 1})
	if !errors.Is(err, ErrCanceled) || acc != nil {
		t.Fatalf("RunCtx = (%v, %v), want (nil, ErrCanceled)", acc, err)
	}
	if ran != DefaultShardSize {
		t.Fatalf("%d trials ran, want exactly the in-flight shard (%d)", ran, DefaultShardSize)
	}
}

// TestRunCtxLateCancelKeepsResult pins that a cancel racing the finish
// line loses: when every shard ran to completion the whole result is
// returned, not discarded.
func TestRunCtxLateCancelKeepsResult(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const trials = 2 * DefaultShardSize
	job := Job{
		Trials: trials,
		Seed:   1,
		NewAcc: func() Accumulator { return &countAcc{} },
		Trial: func(_ *rand.Rand, trial int, acc Accumulator) {
			if trial == trials-1 {
				cancel() // cancel during the very last trial
			}
			acc.(*countAcc).n++
		},
	}
	acc, err := RunCtx(ctx, job, Options{Parallelism: 1})
	if err != nil {
		t.Fatalf("late cancel discarded a completed run: %v", err)
	}
	if got := acc.(*countAcc).n; got != trials {
		t.Fatalf("counted %d trials, want %d", got, trials)
	}
}

// TestRunCtxCompletesUncancelled pins that RunCtx with a live context is
// Run: same accumulator, nil error.
func TestRunCtxCompletesUncancelled(t *testing.T) {
	job := Job{
		Trials: 1000,
		Seed:   7,
		NewAcc: func() Accumulator { return &countAcc{} },
		Trial:  func(_ *rand.Rand, _ int, acc Accumulator) { acc.(*countAcc).n++ },
	}
	acc, err := RunCtx(context.Background(), job, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := acc.(*countAcc).n; got != 1000 {
		t.Fatalf("counted %d trials, want 1000", got)
	}
}

// TestMapCtxCancel exercises the generic wrapper's error path.
func TestMapCtxCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MapScratchCtx(ctx, 100, 1, Options{}, func() *int { return new(int) },
		func(*rand.Rand, int, *int) int { return 0 }); !errors.Is(err, ErrCanceled) {
		t.Fatalf("MapScratchCtx error = %v, want ErrCanceled", err)
	}
}
