// Package mc is the sharded Monte Carlo engine behind every lifetime
// figure the repository regenerates (Fig 3.1, 6.1 validation, 7.4-7.6)
// and behind the per-mix simulator fan-outs of Chapter 7.
//
// A job's trials are partitioned into fixed-size shards. Each shard owns a
// private RNG stream whose seed is derived from the job seed and the shard
// index alone (base ^ splitmix64(shardIndex)), and accumulates its trial
// results into a private Accumulator. Shards are executed by a pool of
// workers and their accumulators are merged in shard-index order, each
// as soon as every earlier shard has finished. Because the shard
// structure, the per-shard streams, and the merge order depend only on
// (Trials, ShardSize, Seed) — never on the worker count — a job's result
// is bit-identical at any parallelism, including the serial
// Parallelism=1 special case, which runs the shards inline on the
// calling goroutine with no pool at all. Each worker owns
// one generator, an rng.Source, and reseeds it at the start of every
// shard it runs, which yields exactly the stream
// rand.New(rand.NewSource(seed)) would without building one per shard.
// The engine calls a job once per shard, not once per trial: Job.Shard
// and MapScratchCtx's loop run the shard's trials themselves, drawing
// from that Source directly, so every draw is a concrete call the
// compiler can inline and a trial costs no indirect call. Only the plain
// Job.Trial is called per trial, with a *rand.Rand wrapped once per
// worker around the same Source.
//
// Jobs whose trials need working buffers (fault-arrival histories, decode
// workspaces, whole simulator-run state) set NewScratch: the engine
// creates one scratch workspace per worker and hands it to every shard
// that worker executes, so the steady-state trial loop allocates
// nothing. A scratch carries capacity, never state, which keeps results
// independent of how shards are distributed over workers.
//
// There are two ways to run: RunCtx runs a Job, and MapScratchCtx, a
// wrapper over it, returns one value per trial in trial order. A
// weighted job is a plain Job whose NewAcc returns NewWeightedSet: its
// Shard folds each trial's observation vector and likelihood ratio into
// the shard's WeightedSet (WeightedSet.Add), which holds the unbiased
// mean, CI and effective sample size of every dimension, with the trial
// count, Σw and Σw² that all dimensions share kept once. The observation
// vector lives in the job's own scratch, and every trial overwrites it
// in full.
package mc

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"runtime"
	"sync"

	"arcc/internal/rng"
)

// ErrCanceled is the sentinel RunCtx (and the MapScratchCtx wrapper)
// returns when the context is cancelled before the job completes. The
// engine stops within one shard boundary of the cancel: no new shard
// starts once the context is done, in-flight shards finish, and every
// worker goroutine exits before RunCtx returns.
var ErrCanceled = errors.New("mc: run canceled")

// DefaultShardSize is the number of trials per shard when Options.ShardSize
// is zero. Small enough to load-balance thousands of cheap trials across a
// pool, large enough to amortise the per-shard setup: reseeding the
// worker's generator, which writes all 607 words of its state, one
// NewAcc, and the one call of the job's Shard, whose type assertions on
// the accumulator and scratch are paid per shard, not per trial. In a
// tight loop the reseed takes about 0.5 µs with rng's
// AVX-512 kernel (some 8 ns per trial at this size), 0.9–1 µs with its
// AVX2 kernel and 3 µs with its Go loop. Inside a tilted lifetime sweep an
// AVX-512 reseed costs about 1.1 µs (some 17 ns per trial), 10.6% of the
// sweep (CPU profile of BenchmarkLifetimeOverheadStatsTilted). A plain
// field-rate lifetime trial spends about 47 ns drawing its faults from the
// Source (72-device channel, BenchmarkSamplerSampleInto), but most draw
// none, and a shard draws each run of consecutive empty trials in one
// rng.Source.Int63RunsAtMost call: 64 empty trials take about 270 ns on
// its AVX-512 kernel (some 4 ns per trial, under the reseed's share) and
// 680–760 ns on its Go loop (BenchmarkEmptyRuns). The value cannot
// change without changing every seeded result: the shard size fixes
// which stream each trial draws from.
const DefaultShardSize = 64

// Accumulator collects the results of the trials of one shard. One
// accumulator is created per shard and used from a single goroutine;
// implementations need no internal locking.
type Accumulator interface {
	// Merge folds other — the accumulator of a later shard — into the
	// receiver. The engine always merges in shard-index order, so
	// implementations may rely on a deterministic fold even for
	// non-associative float accumulation.
	Merge(other Accumulator)
}

// Job describes one Monte Carlo computation. Exactly one of Trial and
// Shard must be set.
type Job struct {
	// Trials is the total number of trials to run. Must be positive.
	Trials int
	// Seed is the base seed; shard i draws from a stream seeded with
	// Seed ^ splitmix64(i).
	Seed int64
	// NewAcc allocates an empty per-shard accumulator.
	NewAcc func() Accumulator
	// Trial runs trial number trial (0-based, global across shards) using
	// the shard's stream, through a *rand.Rand over the worker's Source,
	// and records its result in acc.
	Trial func(rng *rand.Rand, trial int, acc Accumulator)
	// NewScratch, optional, allocates a scratch workspace. It is created
	// once per worker and handed to every Shard call that worker
	// executes, so per-trial working buffers (fault-arrival histories,
	// decode workspaces, whole simulator-run state) are reused across all
	// the shards a worker drains instead of reallocated per trial or per
	// shard. The scratch must not influence results — trials may not read
	// state a previous trial left behind — so the engine's
	// bit-identical-at-any-parallelism contract is preserved regardless of
	// which shards share a workspace.
	NewScratch func() any
	// Shard runs trials lo..hi-1 (0-based, global across shards) of one
	// shard in order, drawing from the worker's rng.Source itself,
	// reseeded to the shard's stream, and records their results in the
	// shard's acc. It is called once per shard, so its trial loop makes
	// no indirect call per trial. Set it (instead of Trial), with
	// NewScratch for allocation-free trial loops; scratch is nil when
	// NewScratch is. The Source produces the values a *rand.Rand over it
	// would, method for method.
	Shard func(src *rng.Source, lo, hi int, acc Accumulator, scratch any)
}

// Options tunes how a job executes without affecting its result.
type Options struct {
	// Parallelism is the worker count; <= 0 means runtime.GOMAXPROCS(0).
	// 1 runs the shards inline with no goroutines.
	Parallelism int
	// ShardSize overrides DefaultShardSize. Results are bit-identical only
	// across runs that use the same shard size. Callers whose trials are
	// individually expensive (whole simulator runs) should set 1.
	ShardSize int
	// Progress, when non-nil, is called with (0, total) when the job
	// starts — an explicit job-start signal, so a sink shared across
	// consecutive jobs need not infer boundaries from count heuristics —
	// and then after each shard completes with the number of trials
	// finished so far and the total. A resumed job (Checkpoint.Resume)
	// additionally reports the restored trials right after the start
	// signal. Calls are serialised by the engine; done is non-decreasing
	// across the calls of one job.
	Progress func(done, total int)
	// Checkpoint, when non-nil, enables shard-level checkpoint/resume
	// (see CheckpointConfig). Like every other option it cannot affect
	// the result: a resumed run is bit-identical to an uninterrupted one.
	Checkpoint *CheckpointConfig
}

// Workers returns the effective worker count the options request (before
// capping at the job's shard count).
func (o Options) Workers() int {
	if o.Parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Parallelism
}

func (o Options) shardSize() int {
	if o.ShardSize <= 0 {
		return DefaultShardSize
	}
	return o.ShardSize
}

// RunCtx executes the job and returns the merge of all shard
// accumulators (shard 0's accumulator after folding shards 1..n-1 into
// it, in order). Each shard is folded in the moment every earlier shard
// has finished, so the run holds one prefix accumulator plus the few
// shards that finished ahead of an earlier one, not one accumulator per
// shard. If ctx is cancelled mid-run it returns (nil, ErrCanceled) within
// one shard boundary instead of completing the fan-out; a run that
// completes is unaffected by a cancel that arrives afterwards. A job
// with Options.Checkpoint set skips the shards its Resume snapshot
// already completed and emits snapshots of its progress, bit-identical
// to an uninterrupted run.
func RunCtx(ctx context.Context, job Job, opts Options) (Accumulator, error) {
	if job.Trials <= 0 {
		panic(fmt.Sprintf("mc: non-positive trial count %d", job.Trials))
	}
	if job.NewAcc == nil {
		panic("mc: job needs NewAcc")
	}
	if (job.Trial == nil) == (job.Shard == nil) {
		panic("mc: job needs exactly one of Trial and Shard")
	}
	if job.NewScratch != nil && job.Shard == nil {
		panic("mc: NewScratch requires Shard")
	}
	size := opts.shardSize()
	shards := (job.Trials + size - 1) / size
	f := &fold{later: map[int]Accumulator{}}

	// Restore completed shards from a prior interrupted run before any
	// work is dispatched; restored shards are skipped below and fold in
	// shard order exactly as if they had just run.
	ckpt := newCheckpointer(job, size, opts.Checkpoint)
	if ckpt != nil {
		f.done = ckpt.restore(f, shards)
	}
	first, restored := f.folded, maps.Clone(f.later)
	if opts.Progress != nil {
		// Explicit job-start signal (see Options.Progress): emitted before
		// any worker goroutine exists, so it is ordered before every
		// per-shard call.
		opts.Progress(0, job.Trials)
		if f.done > 0 {
			opts.Progress(f.done, job.Trials)
		}
	}
	// complete folds a finished shard, snapshots when the cadence says
	// so and reports progress, all under f.mu, so the sink and the
	// progress callback see the calls serialised.
	complete := func(s int, acc Accumulator) {
		f.mu.Lock()
		defer f.mu.Unlock()
		f.add(s, acc)
		f.done += shardTrials(s, size, job.Trials)
		if ckpt != nil {
			ckpt.completed(f)
		}
		if opts.Progress != nil {
			opts.Progress(f.done, job.Trials)
		}
	}
	workers := min(opts.Workers(), shards-first-len(restored))
	if workers <= 1 {
		w := job.newWorker()
		for s := first; s < shards; s++ {
			if _, ok := restored[s]; ok {
				continue
			}
			if ctx.Err() != nil {
				break
			}
			complete(s, job.runShard(s, size, w))
		}
	} else {
		var (
			wg      sync.WaitGroup
			shardCh = make(chan int)
		)
		// While snapshots are taken, no shard is handed out more than
		// workers shards past the first unfinished one, so a snapshot
		// holds at most workers+1 blobs however the workers are
		// scheduled.
		window := 0
		if ckpt.snapshots() {
			window = workers + 1
			f.moved = make(chan struct{}, 1)
		}
		wg.Add(workers)
		for range workers {
			go func() {
				defer wg.Done()
				w := job.newWorker()
				for s := range shardCh {
					// Drain without working once the run is cancelled, so
					// the dispatcher never blocks and the pool exits.
					if ctx.Err() != nil {
						continue
					}
					complete(s, job.runShard(s, size, w))
				}
			}()
		}
	dispatch:
		for s := first; s < shards; s++ {
			if _, ok := restored[s]; ok {
				continue
			}
			for window > 0 && s >= f.frontier()+window {
				select {
				case <-f.moved:
				case <-ctx.Done():
					break dispatch
				}
			}
			select {
			case shardCh <- s:
			case <-ctx.Done():
				break dispatch
			}
		}
		close(shardCh)
		wg.Wait()
	}
	if f.folded < shards {
		// Only a cancel leaves shards unrun; a cancel that raced the
		// finish line loses, since every shard ran and the result is
		// whole. The completed shards are flushed to the checkpoint sink
		// first, so a graceful shutdown persists everything that
		// finished.
		if ckpt != nil {
			ckpt.flush(f)
		}
		return nil, ErrCanceled
	}
	return f.prefix, nil
}

// fold is a run's result so far: prefix is the shard-order merge of
// shards [0, folded), and later holds the completed shards past the
// first unfinished one until every shard before them has finished. The
// engine reads and writes it under mu.
type fold struct {
	mu     sync.Mutex
	prefix Accumulator
	folded int
	later  map[int]Accumulator
	done   int           // trials completed, restored ones included
	moved  chan struct{} // signalled when folded advances, nil when nobody waits
}

// add records completed shard s and folds every shard the prefix can now
// take, in shard order: the same Merge calls, in the same order, as
// merging all accumulators after the run.
func (f *fold) add(s int, acc Accumulator) {
	if s != f.folded {
		f.later[s] = acc
		return
	}
	for {
		if f.prefix == nil {
			f.prefix = acc
		} else {
			f.prefix.Merge(acc)
		}
		f.folded++
		next, ok := f.later[f.folded]
		if !ok {
			break
		}
		delete(f.later, f.folded)
		acc = next
	}
	select {
	case f.moved <- struct{}{}:
	default:
	}
}

// frontier returns the first shard not folded yet.
func (f *fold) frontier() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.folded
}

// worker is what each engine worker owns for the whole run: one
// generator, reseeded at every shard it executes, with the *rand.Rand
// over it that Job.Trial takes, and the job's scratch workspace.
type worker struct {
	src     *rng.Source
	r       *rand.Rand
	scratch any
}

// newWorker returns a worker's generator and, when the job has one, its
// scratch workspace.
func (job Job) newWorker() worker {
	src := new(rng.Source)
	w := worker{src: src, r: rand.New(src)}
	if job.NewScratch != nil {
		w.scratch = job.NewScratch()
	}
	return w
}

// runShard runs the trials of shard s on w and returns their
// accumulator.
func (job Job) runShard(s, size int, w worker) Accumulator {
	// Rand.Seed rather than the source's: it also drops bytes a previous
	// shard's Read left buffered in the Rand.
	w.r.Seed(ShardSeed(job.Seed, s))
	acc := job.NewAcc()
	lo := s * size
	hi := lo + shardTrials(s, size, job.Trials)
	if job.Shard != nil {
		job.Shard(w.src, lo, hi, acc, w.scratch)
	} else {
		for t := lo; t < hi; t++ {
			job.Trial(w.r, t, acc)
		}
	}
	return acc
}

// shardTrials returns how many trials shard s covers.
func shardTrials(s, size, trials int) int {
	lo := s * size
	hi := lo + size
	if hi > trials {
		hi = trials
	}
	return hi - lo
}

// ShardSeed derives the RNG seed of shard s from the job's base seed. The
// splitmix64 finaliser decorrelates the streams of adjacent shards, so the
// caller may use small consecutive base seeds without overlapping streams.
func ShardSeed(base int64, s int) int64 {
	return int64(uint64(base) ^ splitmix64(uint64(s)))
}

// DeriveSeed produces an independent base seed for a sub-experiment (e.g.
// one rate factor of a sweep) from a root seed and a tag. It reuses the
// splitmix64 finaliser with an offset that keeps sub-experiment streams
// disjoint from shard streams of the root seed.
func DeriveSeed(root int64, tag uint64) int64 {
	return int64(splitmix64(uint64(root) + splitmix64(tag) + 0x632be59bd9b4e019))
}

// splitmix64 is the finaliser of Steele et al.'s SplitMix64 generator: a
// bijective avalanche mix of the input, here used to turn a dense shard
// index into a decorrelated stream seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewProgressPrinter returns a Progress callback that writes a labelled
// line to w at every completed 10% of a job. It may be shared across
// consecutive jobs: a change of total, or done falling back, marks the
// start of a new job and resets the ticks. A non-positive total is
// ignored rather than divided by — progress of an empty job is
// meaningless, and the printer sits on server paths where a panic would
// kill the process.
func NewProgressPrinter(w io.Writer, label string) func(done, total int) {
	lastDone, lastTotal, lastDecile := -1, -1, -1
	return func(done, total int) {
		if total <= 0 {
			return
		}
		if total != lastTotal || done <= lastDone {
			lastDecile = -1
		}
		lastDone, lastTotal = done, total
		decile := done * 10 / total
		if decile > lastDecile {
			fmt.Fprintf(w, "%s: %d/%d (%d%%)\n", label, done, total, decile*10)
			lastDecile = decile
		}
	}
}

// MapScratchCtx runs n trials and returns their results in trial order:
// a wrapper over RunCtx for jobs whose trials each produce one
// independent value (e.g. one simulator run per mix). f draws from the
// worker's rng.Source, reseeded to the trial's shard stream as usual. newScratch runs once per
// worker and its result is threaded through every trial that worker
// executes, mirroring Job.NewScratch; like Job scratch, the
// workspace must carry capacity only — a trial must not read state a
// previous trial left behind — so results stay bit-identical at any
// parallelism. The Fig 7.1-7.3 fan-outs thread a sim.Scratch this way,
// so consecutive simulator runs on a worker reuse one world's backing
// arrays. A cancelled context returns (nil, ErrCanceled) within one
// shard boundary.
func MapScratchCtx[T, S any](ctx context.Context, n int, seed int64, opts Options, newScratch func() S, f func(src *rng.Source, trial int, scratch S) T) ([]T, error) {
	size := opts.shardSize()
	if size > n {
		size = n
	}
	acc, err := RunCtx(ctx, Job{
		Trials: n,
		Seed:   seed,
		NewAcc: func() Accumulator {
			return &mapAcc[T]{idx: make([]int, 0, size), vals: make([]T, 0, size)}
		},
		NewScratch: func() any { return newScratch() },
		Shard: func(src *rng.Source, lo, hi int, a Accumulator, scratch any) {
			ma, sc := a.(*mapAcc[T]), scratch.(S)
			for trial := lo; trial < hi; trial++ {
				ma.idx = append(ma.idx, trial)
				ma.vals = append(ma.vals, f(src, trial, sc))
			}
		},
	}, opts)
	if err != nil {
		return nil, err
	}
	ma := acc.(*mapAcc[T])
	out := make([]T, n)
	for i, idx := range ma.idx {
		out[idx] = ma.vals[i]
	}
	return out, nil
}

type mapAcc[T any] struct {
	idx  []int
	vals []T
}

func (m *mapAcc[T]) Merge(other Accumulator) {
	o := other.(*mapAcc[T])
	m.idx = append(m.idx, o.idx...)
	m.vals = append(m.vals, o.vals...)
}

// mapAccWire is the gob image of a mapAcc shard; gob needs the exported
// mirror because mapAcc's own fields are unexported.
type mapAccWire[T any] struct {
	Idx  []int
	Vals []T
}

// MarshalBinary makes MapScratchCtx jobs checkpointable (see
// CheckpointConfig): a shard's trial results are gob-encoded, which
// round-trips float64 values bit for bit. It fails — and the engine
// simply skips checkpointing that shard — when T is not gob-encodable
// (e.g. a struct with no exported fields).
func (m *mapAcc[T]) MarshalBinary() ([]byte, error) {
	return gobEncode(mapAccWire[T]{Idx: m.idx, Vals: m.vals})
}

// UnmarshalBinary restores a shard's trial results from MarshalBinary
// bytes. Which trials they belong to is checked by checkTrials when the
// engine restores the shard.
func (m *mapAcc[T]) UnmarshalBinary(b []byte) error {
	var w mapAccWire[T]
	if err := gobDecode(b, &w); err != nil {
		return err
	}
	m.idx, m.vals = w.Idx, w.Vals
	return nil
}

// gobEncode and gobDecode hold the gob plumbing of mapAcc's generic
// methods, so every instantiation calls one compiled copy.
func gobEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func gobDecode(b []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(b)).Decode(v)
}

// checkTrials reports why a restored shard cannot stand for trials
// [lo, hi): result assembly places value i at trial idx[i], so the blob
// must hold exactly one value per trial of the range, in order. Any other
// blob would misplace results or index past the output.
func (m *mapAcc[T]) checkTrials(lo, hi int) error {
	if len(m.idx) != hi-lo || len(m.vals) != len(m.idx) {
		return fmt.Errorf("mc: map snapshot holds %d indices and %d values, want %d", len(m.idx), len(m.vals), hi-lo)
	}
	for i, t := range m.idx {
		if t != lo+i {
			return fmt.Errorf("mc: map snapshot holds trial %d where trial %d belongs", t, lo+i)
		}
	}
	return nil
}
