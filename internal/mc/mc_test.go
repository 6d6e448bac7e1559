package mc

import (
	"context"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"arcc/internal/rng"
)

// sumAcc is a float accumulator whose merge is order-sensitive enough to
// expose nondeterministic folds (float addition is not associative).
type sumAcc struct {
	sum   float64
	count int
}

func (a *sumAcc) Merge(other Accumulator) {
	o := other.(*sumAcc)
	a.sum += o.sum
	a.count += o.count
}

// run is RunCtx under a background context, which never cancels.
func run(job Job, opts Options) Accumulator {
	acc, err := RunCtx(context.Background(), job, opts)
	if err != nil {
		panic(err)
	}
	return acc
}

// runWeighted is runWeightedCtx under a background context.
func runWeighted(job weightedJob, opts Options) *WeightedSet {
	set, err := runWeightedCtx(context.Background(), job, opts)
	if err != nil {
		panic(err)
	}
	return set
}

// mapTrials is MapScratchCtx without a scratch workspace, under a
// background context.
func mapTrials[T any](n int, seed int64, opts Options, f func(src *rng.Source, trial int) T) []T {
	out, err := MapScratchCtx(context.Background(), n, seed, opts, func() struct{} { return struct{}{} },
		func(src *rng.Source, trial int, _ struct{}) T { return f(src, trial) })
	if err != nil {
		panic(err)
	}
	return out
}

// perTrial adapts a per-trial function to Job.Shard: the shard's trials
// run in order, each with the shard's accumulator and the worker's
// scratch.
func perTrial(trial func(src *rng.Source, trial int, acc Accumulator, scratch any)) func(*rng.Source, int, int, Accumulator, any) {
	return func(src *rng.Source, lo, hi int, acc Accumulator, scratch any) {
		for t := lo; t < hi; t++ {
			trial(src, t, acc, scratch)
		}
	}
}

func sumJob(trials int, seed int64) Job {
	return Job{
		Trials: trials,
		Seed:   seed,
		NewAcc: func() Accumulator { return &sumAcc{} },
		Trial: func(rng *rand.Rand, trial int, acc Accumulator) {
			a := acc.(*sumAcc)
			// Mix the trial index in so coverage bugs (skipped or doubled
			// trials) shift the sum even if the rng draws collide.
			a.sum += rng.Float64() * float64(trial%7+1)
			a.count++
		},
	}
}

func TestRunCoversEveryTrialExactlyOnce(t *testing.T) {
	for _, trials := range []int{1, 63, 64, 65, 1000} {
		acc := run(sumJob(trials, 1), Options{Parallelism: 3}).(*sumAcc)
		if acc.count != trials {
			t.Errorf("trials=%d: ran %d trials", trials, acc.count)
		}
	}
}

func TestRunDeterministicAcrossParallelism(t *testing.T) {
	want := run(sumJob(1000, 42), Options{Parallelism: 1}).(*sumAcc)
	if want.sum == 0 {
		t.Fatal("degenerate sum")
	}
	for _, par := range []int{1, 4, runtime.NumCPU(), 32} {
		got := run(sumJob(1000, 42), Options{Parallelism: par}).(*sumAcc)
		if got.sum != want.sum {
			t.Errorf("parallelism %d: sum %v, want bit-identical %v", par, got.sum, want.sum)
		}
	}
}

func TestRunSeedChangesResult(t *testing.T) {
	a := run(sumJob(500, 1), Options{}).(*sumAcc)
	b := run(sumJob(500, 2), Options{}).(*sumAcc)
	if a.sum == b.sum {
		t.Fatal("different seeds produced identical sums")
	}
}

func TestRunShardSizeChangesStreams(t *testing.T) {
	// Different shard sizes give different (but each internally
	// deterministic) results: the per-shard streams re-partition.
	a := run(sumJob(500, 1), Options{ShardSize: 64}).(*sumAcc)
	b := run(sumJob(500, 1), Options{ShardSize: 128}).(*sumAcc)
	if a.sum == b.sum {
		t.Fatal("shard size did not re-partition the streams")
	}
}

func TestShardSeedsDecorrelated(t *testing.T) {
	seen := map[int64]int{}
	for s := 0; s < 10000; s++ {
		seen[ShardSeed(1, s)]++
	}
	if len(seen) != 10000 {
		t.Fatalf("shard seed collisions: %d distinct of 10000", len(seen))
	}
	if ShardSeed(1, 0) == ShardSeed(2, 0) {
		t.Fatal("base seed ignored")
	}
	if DeriveSeed(1, 0) == DeriveSeed(1, 1) || DeriveSeed(1, 0) == DeriveSeed(2, 0) {
		t.Fatal("DeriveSeed ignores tag or root")
	}
}

// TestShardStreamsMatchMathRand pins the per-shard stream contract the
// engine's reseeded per-worker generator must keep: every shard draws
// exactly what rand.New(rand.NewSource(ShardSeed(seed, s))) draws, at any
// parallelism, both through the *rand.Rand a plain Job.Trial gets, even
// when the previous shard on the worker left bytes of a Read buffered in
// it, and from the rng.Source the other trial functions get.
func TestShardStreamsMatchMathRand(t *testing.T) {
	const trials, size, seed = 200, 8, -77
	type draw struct {
		f    float64
		n    int
		b    [3]byte
		u    uint64
		norm float64
	}
	for _, p := range []int{1, 3} {
		opts := Options{Parallelism: p, ShardSize: size}
		viaRand := make([]draw, trials)
		run(Job{
			Trials: trials,
			Seed:   seed,
			NewAcc: func() Accumulator { return nopAcc{} },
			Trial: func(r *rand.Rand, trial int, _ Accumulator) {
				d := &viaRand[trial]
				d.f, d.n = r.Float64(), r.Intn(1000)
				r.Read(d.b[:])
				d.u = r.Uint64()
			},
		}, opts)
		viaSource := mapTrials(trials, seed, opts, func(src *rng.Source, trial int) draw {
			var d draw
			d.f, d.n = src.Float64(), src.Intn(1000)
			d.u, d.norm = src.Uint64(), src.NormFloat64()
			return d
		})
		for s := 0; s < trials/size; s++ {
			want := rand.New(rand.NewSource(ShardSeed(seed, s)))
			for trial := s * size; trial < (s+1)*size; trial++ {
				var d draw
				d.f, d.n = want.Float64(), want.Intn(1000)
				want.Read(d.b[:])
				d.u = want.Uint64()
				if viaRand[trial] != d {
					t.Fatalf("parallelism %d, trial %d: drew %+v through the Rand, math/rand %+v", p, trial, viaRand[trial], d)
				}
			}
			want.Seed(ShardSeed(seed, s))
			for trial := s * size; trial < (s+1)*size; trial++ {
				var d draw
				d.f, d.n = want.Float64(), want.Intn(1000)
				d.u, d.norm = want.Uint64(), want.NormFloat64()
				if viaSource[trial] != d {
					t.Fatalf("parallelism %d, trial %d: drew %+v from the Source, math/rand %+v", p, trial, viaSource[trial], d)
				}
			}
		}
	}
}

// nopAcc is an accumulator that costs nothing to create: a zero-size
// value in an interface does not allocate.
type nopAcc struct{}

func (nopAcc) Merge(Accumulator) {}

// TestRunCtxAllocationsIndependentOfShardCount pins that a serial run
// creates its generator once and reseeds it per shard: beyond NewAcc's
// own (none here), a 64-shard run allocates exactly what a 1-shard run
// does, where building a generator per shard cost 2 allocations and
// 5.4 KB each.
func TestRunCtxAllocationsIndependentOfShardCount(t *testing.T) {
	allocs := func(shards int) float64 {
		job := Job{
			Trials: shards * DefaultShardSize,
			Seed:   1,
			NewAcc: func() Accumulator { return nopAcc{} },
			Trial:  func(rng *rand.Rand, _ int, _ Accumulator) { rng.Float64() },
		}
		return testing.AllocsPerRun(20, func() { run(job, Options{Parallelism: 1}) })
	}
	one, many := allocs(1), allocs(64)
	if many != one {
		t.Fatalf("64-shard run allocates %v, 1-shard run %v: allocations grow with the shard count", many, one)
	}
}

func TestProgressMonotoneAndComplete(t *testing.T) {
	for _, par := range []int{1, 4} {
		var mu sync.Mutex
		last, calls := 0, 0
		opts := Options{Parallelism: par, ShardSize: 10, Progress: func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			if calls == 0 && done != 0 {
				t.Errorf("par %d: first progress call %d/%d, want the 0/%d job-start signal", par, done, total, total)
			}
			if done < last || done > total {
				t.Errorf("par %d: progress went %d -> %d of %d", par, last, done, total)
			}
			last = done
			calls++
		}}
		run(sumJob(95, 7), opts)
		// 1 job-start signal + 10 per-shard calls.
		if last != 95 || calls != 11 {
			t.Fatalf("par %d: final progress %d after %d calls, want 95 after 11", par, last, calls)
		}
	}
}

func TestMapOrdersResultsByTrial(t *testing.T) {
	want := mapTrials(257, 3, Options{Parallelism: 1}, func(src *rng.Source, trial int) float64 {
		return float64(trial) + src.Float64()
	})
	for _, par := range []int{4, runtime.NumCPU()} {
		got := mapTrials(257, 3, Options{Parallelism: par}, func(src *rng.Source, trial int) float64 {
			return float64(trial) + src.Float64()
		})
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("par %d: trial %d = %v, want %v", par, i, got[i], want[i])
			}
		}
	}
	for i, v := range want {
		if int(v) != i {
			t.Fatalf("trial %d result %v landed at wrong index", i, v)
		}
	}
}

// scratchJob is sumJob on the scratch path: each trial writes then reads a
// per-shard buffer, so a shared or missing scratch corrupts the sum.
func scratchJob(trials int, seed int64) Job {
	type buf struct{ vals []float64 }
	return Job{
		Trials: trials,
		Seed:   seed,
		NewAcc: func() Accumulator { return &sumAcc{} },
		NewScratch: func() any {
			return &buf{vals: make([]float64, 0, 8)}
		},
		Shard: perTrial(func(src *rng.Source, trial int, acc Accumulator, scratch any) {
			a := acc.(*sumAcc)
			b := scratch.(*buf)
			b.vals = b.vals[:0]
			for i := 0; i < 1+trial%4; i++ {
				b.vals = append(b.vals, src.Float64())
			}
			for _, v := range b.vals {
				a.sum += v * float64(trial%7+1)
			}
			a.count++
		}),
	}
}

func TestShardMatchesTrialAcrossParallelism(t *testing.T) {
	want := run(scratchJob(1000, 42), Options{Parallelism: 1}).(*sumAcc)
	if want.sum == 0 {
		t.Fatal("degenerate sum")
	}
	if want.count != 1000 {
		t.Fatalf("ran %d trials, want 1000", want.count)
	}
	for _, par := range []int{1, 4, runtime.NumCPU(), 32} {
		got := run(scratchJob(1000, 42), Options{Parallelism: par}).(*sumAcc)
		if got.sum != want.sum {
			t.Errorf("parallelism %d: sum %v, want bit-identical %v", par, got.sum, want.sum)
		}
	}
}

func TestNewScratchCalledOncePerWorker(t *testing.T) {
	for _, par := range []int{1, 4} {
		var mu sync.Mutex
		created := 0
		job := Job{
			Trials: 100,
			Seed:   1,
			NewAcc: func() Accumulator { return &sumAcc{} },
			NewScratch: func() any {
				mu.Lock()
				created++
				mu.Unlock()
				return new(int)
			},
			Shard: perTrial(func(_ *rng.Source, _ int, acc Accumulator, scratch any) {
				*(scratch.(*int))++ // panics if scratch were nil
				acc.(*sumAcc).count++
			}),
		}
		run(job, Options{Parallelism: par, ShardSize: 10})
		// One workspace per worker — the shards a worker drains share it.
		if created < 1 || created > par {
			t.Fatalf("parallelism %d: NewScratch called %d times, want 1..%d (once per worker)", par, created, par)
		}
		if par == 1 && created != 1 {
			t.Fatalf("serial: NewScratch called %d times, want exactly 1", created)
		}
	}
}

func TestShardWithoutNewScratchGetsNil(t *testing.T) {
	job := Job{
		Trials: 10,
		Seed:   1,
		NewAcc: func() Accumulator { return &sumAcc{} },
		Shard: perTrial(func(_ *rng.Source, _ int, acc Accumulator, scratch any) {
			if scratch != nil {
				t.Errorf("scratch = %v, want nil without NewScratch", scratch)
			}
			acc.(*sumAcc).count++
		}),
	}
	if acc := run(job, Options{}).(*sumAcc); acc.count != 10 {
		t.Fatalf("ran %d trials, want 10", acc.count)
	}
}

func TestNewProgressPrinterResetsPerJob(t *testing.T) {
	var buf strings.Builder
	p := NewProgressPrinter(&buf, "job")
	// Job 1: two shards of a 100-trial job.
	p(50, 100)
	p(100, 100)
	// Job 2 with the same total must print again from 0%.
	p(50, 100)
	p(100, 100)
	// Job 3 with a new total resets even though done jumped upward.
	p(640, 1000)
	p(1000, 1000)
	got := strings.Count(buf.String(), "\n")
	if got != 6 {
		t.Fatalf("printed %d lines, want 6:\n%s", got, buf.String())
	}
	// Within one job, a tick below the next decile prints nothing.
	buf.Reset()
	p2 := NewProgressPrinter(&buf, "job")
	p2(10, 1000)
	p2(19, 1000)
	if got := strings.Count(buf.String(), "\n"); got != 1 {
		t.Fatalf("sub-decile tick printed: %q", buf.String())
	}
}

// A non-positive total must be ignored, not divided by: the printer sits
// on server paths where a panic would kill the process.
func TestNewProgressPrinterIgnoresZeroTotal(t *testing.T) {
	var buf strings.Builder
	p := NewProgressPrinter(&buf, "job")
	p(0, 0)
	p(5, 0)
	p(1, -3)
	if buf.Len() != 0 {
		t.Fatalf("zero-total ticks printed: %q", buf.String())
	}
	// The printer still works for a real job afterwards.
	p(100, 100)
	if got := strings.Count(buf.String(), "\n"); got != 1 {
		t.Fatalf("printer broken after zero-total tick: %q", buf.String())
	}
}

func TestRunPanicsOnBadJob(t *testing.T) {
	for name, job := range map[string]Job{
		"no trials": {Trials: 0, NewAcc: func() Accumulator { return &sumAcc{} }, Trial: func(*rand.Rand, int, Accumulator) {}},
		"no newacc": {Trials: 1, Trial: func(*rand.Rand, int, Accumulator) {}},
		"no trial":  {Trials: 1, NewAcc: func() Accumulator { return &sumAcc{} }},
		"both trial fns": {Trials: 1, NewAcc: func() Accumulator { return &sumAcc{} },
			Trial: func(*rand.Rand, int, Accumulator) {},
			Shard: func(*rng.Source, int, int, Accumulator, any) {}},
		"scratch without shard": {Trials: 1, NewAcc: func() Accumulator { return &sumAcc{} },
			Trial:      func(*rand.Rand, int, Accumulator) {},
			NewScratch: func() any { return nil }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			run(job, Options{})
		}()
	}
}

// TestMapScratchMatchesMap pins MapScratchCtx to a plain map over the
// shard streams: same trial order, same results, one scratch per worker
// threaded through that worker's trials, at any parallelism.
func TestMapScratchMatchesMap(t *testing.T) {
	const n, seed = 103, int64(5)
	f := func(r interface{ Float64() float64 }, trial int) float64 { return r.Float64() + float64(trial) }
	want := make([]float64, n)
	for trial := range want {
		if trial%8 == 0 {
			r := rand.New(rand.NewSource(ShardSeed(seed, trial/8)))
			for t := trial; t < trial+8 && t < n; t++ {
				want[t] = f(r, t)
			}
		}
	}
	for _, par := range []int{1, 4, 0} {
		var mu sync.Mutex
		scratches := 0
		got, err := MapScratchCtx(context.Background(), n, seed, Options{Parallelism: par, ShardSize: 8},
			func() *[]int {
				mu.Lock()
				scratches++
				mu.Unlock()
				s := make([]int, 0, 8)
				return &s
			},
			func(src *rng.Source, trial int, s *[]int) float64 {
				*s = append(*s, trial) // scratch carries capacity; contents unused
				return f(src, trial)
			})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("parallelism %d: %d results, want %d", par, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("parallelism %d: result %d = %v, want %v", par, i, got[i], want[i])
			}
		}
		workers := par
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		if shards := (n + 7) / 8; workers > shards {
			workers = shards
		}
		if scratches < 1 || scratches > workers {
			t.Errorf("parallelism %d: newScratch called %d times, want 1..%d (once per worker)", par, scratches, workers)
		}
	}
}
