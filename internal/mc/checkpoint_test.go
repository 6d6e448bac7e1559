package mc

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"arcc/internal/rng"
)

// ckSum is sumAcc with an exact binary round trip, making jobs built on
// it checkpointable.
type ckSum struct {
	sum   float64
	count int
}

func (a *ckSum) Merge(other Accumulator) {
	o := other.(*ckSum)
	a.sum += o.sum
	a.count += o.count
}

func (a *ckSum) MarshalBinary() ([]byte, error) {
	out := make([]byte, 16)
	binary.LittleEndian.PutUint64(out, math.Float64bits(a.sum))
	binary.LittleEndian.PutUint64(out[8:], uint64(a.count))
	return out, nil
}

func (a *ckSum) UnmarshalBinary(b []byte) error {
	if len(b) != 16 {
		return errors.New("ckSum: bad length")
	}
	a.sum = math.Float64frombits(binary.LittleEndian.Uint64(b))
	a.count = int(binary.LittleEndian.Uint64(b[8:]))
	return nil
}

// ckJob mirrors sumJob over ckSum; executed (when non-nil) counts the
// trials whose bodies actually ran, proving restored shards are skipped.
func ckJob(trials int, seed int64, executed *atomic.Int64) Job {
	return Job{
		Trials: trials,
		Seed:   seed,
		NewAcc: func() Accumulator { return &ckSum{} },
		Trial: func(rng *rand.Rand, trial int, acc Accumulator) {
			if executed != nil {
				executed.Add(1)
			}
			a := acc.(*ckSum)
			a.sum += rng.Float64() * float64(trial%7+1)
			a.count++
		},
	}
}

// interrupt runs the job with checkpointing on and cancels after
// afterShards fresh snapshots, returning the latest checkpoint. The run
// must actually be interrupted (return ErrCanceled).
func interrupt(t *testing.T, job Job, opts Options, resume *Checkpoint, afterShards int) *Checkpoint {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var latest *Checkpoint
	snaps := 0
	opts.Checkpoint = &CheckpointConfig{
		Resume: resume,
		Sink: func(cp *Checkpoint) {
			latest = cp
			snaps++
			if snaps >= afterShards {
				cancel()
			}
		},
	}
	if _, err := RunCtx(ctx, job, opts); !errors.Is(err, ErrCanceled) {
		t.Fatalf("interrupted run returned %v, want ErrCanceled", err)
	}
	if latest == nil {
		t.Fatal("no checkpoint emitted before the cancel")
	}
	return latest
}

// perShard returns the checkpoint of job's shards [0, n) in the
// per-shard layout, each shard run on its own stream and marshalled
// alone, as engines before the folded prefix wrote them.
func perShard(t testing.TB, job Job, size, n int) *Checkpoint {
	t.Helper()
	w := worker{r: rand.New(new(rng.Source))}
	if job.NewScratch != nil {
		w.scratch = job.NewScratch()
	}
	cp := &Checkpoint{Trials: job.Trials, Seed: job.Seed, ShardSize: size, Shards: map[int][]byte{}}
	for s := range n {
		blob, err := job.runShard(s, size, w).(checkpointable).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		cp.Shards[s] = blob
	}
	return cp
}

func TestCheckpointResumeBitIdentical(t *testing.T) {
	const trials, seed = 1000, 42
	want := run(ckJob(trials, seed, nil), Options{Parallelism: 1}).(*ckSum)

	for _, par := range []int{1, 4} {
		opts := Options{Parallelism: par}
		cp := interrupt(t, ckJob(trials, seed, nil), opts, nil, 5)
		if cp.Done() == 0 || cp.Done() >= trials {
			t.Fatalf("parallelism %d: checkpoint covers %d/%d trials, want a strict mid-point", par, cp.Done(), trials)
		}

		var executed atomic.Int64
		acc, err := RunCtx(context.Background(), ckJob(trials, seed, &executed), Options{Parallelism: par, Checkpoint: &CheckpointConfig{Resume: cp}})
		if err != nil {
			t.Fatalf("parallelism %d: resume: %v", par, err)
		}
		got := acc.(*ckSum)
		if got.sum != want.sum || got.count != want.count {
			t.Errorf("parallelism %d: resumed sum %v (count %d), want bit-identical %v (%d)",
				par, got.sum, got.count, want.sum, want.count)
		}
		if int(executed.Load()) != trials-cp.Done() {
			t.Errorf("parallelism %d: resume executed %d trials, want %d (checkpoint covers %d)",
				par, executed.Load(), trials-cp.Done(), cp.Done())
		}
	}
}

func TestCheckpointResumeAfterManyInterruptions(t *testing.T) {
	const trials, seed = 1000, 7
	want := run(ckJob(trials, seed, nil), Options{Parallelism: 1}).(*ckSum)

	// Interrupt after every 3 fresh shards until a resume completes; the
	// final result must be bit-identical no matter how many times the run
	// died.
	var cp *Checkpoint
	interruptions := 0
	for {
		// The third snapshot cancels the run, but the other worker's
		// in-flight shard still completes, and a run whose every shard
		// completed is not cancelled; so interrupt only while at least
		// five shards remain.
		if cp != nil && trials-cp.Done() <= 4*DefaultShardSize {
			break
		}
		cp = interrupt(t, ckJob(trials, seed, nil), Options{Parallelism: 2}, cp, 3)
		interruptions++
	}
	if interruptions < 2 {
		t.Fatalf("only %d interruptions; the test needs several to mean anything", interruptions)
	}
	acc, err := RunCtx(context.Background(), ckJob(trials, seed, nil), Options{Parallelism: 2,
		Checkpoint: &CheckpointConfig{Resume: cp}})
	if err != nil {
		t.Fatalf("final resume: %v", err)
	}
	got := acc.(*ckSum)
	if got.sum != want.sum || got.count != want.count {
		t.Errorf("after %d interruptions: sum %v (count %d), want bit-identical %v (%d)",
			interruptions, got.sum, got.count, want.sum, want.count)
	}
}

func TestCheckpointFullyRestoredRunExecutesNothing(t *testing.T) {
	const trials, seed = 300, 3
	var full *Checkpoint
	_, err := RunCtx(context.Background(), ckJob(trials, seed, nil), Options{Parallelism: 2,
		Checkpoint: &CheckpointConfig{Sink: func(cp *Checkpoint) { full = cp }}})
	if err != nil {
		t.Fatal(err)
	}
	if full == nil || full.Done() != trials {
		t.Fatalf("completed run's final checkpoint covers %v trials, want %d", full.Done(), trials)
	}

	want := run(ckJob(trials, seed, nil), Options{Parallelism: 1}).(*ckSum)
	var executed atomic.Int64
	acc, err := RunCtx(context.Background(), ckJob(trials, seed, &executed), Options{Parallelism: 4,
		Checkpoint: &CheckpointConfig{Resume: full}})
	if err != nil {
		t.Fatal(err)
	}
	if got := acc.(*ckSum); got.sum != want.sum || got.count != want.count {
		t.Errorf("fully restored run: sum %v (count %d), want %v (%d)", got.sum, got.count, want.sum, want.count)
	}
	if executed.Load() != 0 {
		t.Errorf("fully restored run executed %d trials, want 0", executed.Load())
	}
}

func TestCheckpointMismatchIgnored(t *testing.T) {
	const trials, seed = 500, 11
	cp := interrupt(t, ckJob(trials, seed, nil), Options{Parallelism: 1}, nil, 4)

	for name, stale := range map[string]*Checkpoint{
		"seed":      {Trials: cp.Trials, Seed: cp.Seed + 1, ShardSize: cp.ShardSize, Shards: cp.Shards},
		"trials":    {Trials: cp.Trials + 64, Seed: cp.Seed, ShardSize: cp.ShardSize, Shards: cp.Shards},
		"shardsize": {Trials: cp.Trials, Seed: cp.Seed, ShardSize: cp.ShardSize / 2, Shards: cp.Shards},
	} {
		// The job keeps its true shape; only the checkpoint's metadata
		// disagrees, so matches() must reject it wholesale.
		job := ckJob(trials, seed, nil)
		want := run(job, Options{Parallelism: 1}).(*ckSum)
		var executed atomic.Int64
		jobCounted := job
		jobCounted.Trial = func(rng *rand.Rand, trial int, acc Accumulator) {
			executed.Add(1)
			job.Trial(rng, trial, acc)
		}
		acc, err := RunCtx(context.Background(), jobCounted, Options{Parallelism: 1,
			Checkpoint: &CheckpointConfig{Resume: stale}})
		if err != nil {
			t.Fatalf("%s mismatch: %v", name, err)
		}
		if int(executed.Load()) != trials {
			t.Errorf("%s mismatch: executed %d trials, want all %d (stale checkpoint must be ignored)",
				name, executed.Load(), trials)
		}
		if got := acc.(*ckSum); got.sum != want.sum {
			t.Errorf("%s mismatch: sum %v, want %v", name, got.sum, want.sum)
		}
	}
}

func TestCheckpointCorruptShardReruns(t *testing.T) {
	const trials, seed = 500, 13
	full := perShard(t, ckJob(trials, seed, nil), DefaultShardSize, (trials+DefaultShardSize-1)/DefaultShardSize)
	corrupt := &Checkpoint{Trials: full.Trials, Seed: full.Seed, ShardSize: full.ShardSize, Shards: map[int][]byte{}}
	for s, b := range full.Shards {
		corrupt.Shards[s] = b
	}
	corrupt.Shards[2] = []byte{0xde, 0xad} // wrong length: Unmarshal fails
	corrupt.Shards[99] = full.Shards[0]    // out of range: ignored
	delete(corrupt.Shards, 3)              // simply missing

	want := run(ckJob(trials, seed, nil), Options{Parallelism: 1}).(*ckSum)
	var executed atomic.Int64
	acc, err := RunCtx(context.Background(), ckJob(trials, seed, &executed), Options{Parallelism: 1,
		Checkpoint: &CheckpointConfig{Resume: corrupt}})
	if err != nil {
		t.Fatal(err)
	}
	wantExec := shardTrials(2, full.ShardSize, trials) + shardTrials(3, full.ShardSize, trials)
	if int(executed.Load()) != wantExec {
		t.Errorf("executed %d trials, want %d (only the corrupt and missing shards re-run)", executed.Load(), wantExec)
	}
	if got := acc.(*ckSum); got.sum != want.sum || got.count != want.count {
		t.Errorf("sum %v (count %d), want bit-identical %v (%d)", got.sum, got.count, want.sum, want.count)
	}
}

func TestCheckpointNonMarshalableAccNeverSnapshots(t *testing.T) {
	// sumJob's accumulator has no MarshalBinary: the engine must run the
	// job normally and never call the sink.
	sank := 0
	acc, err := RunCtx(context.Background(), sumJob(500, 1), Options{Parallelism: 2,
		Checkpoint: &CheckpointConfig{Sink: func(*Checkpoint) { sank++ }}})
	if err != nil {
		t.Fatal(err)
	}
	if sank != 0 {
		t.Errorf("sink called %d times for a non-checkpointable job", sank)
	}
	want := run(sumJob(500, 1), Options{Parallelism: 1}).(*sumAcc)
	if got := acc.(*sumAcc); got.sum != want.sum {
		t.Errorf("sum %v, want %v", got.sum, want.sum)
	}
}

func TestCheckpointPeriodCadence(t *testing.T) {
	// A period far longer than the run: no snapshot fires.
	snaps := 0
	_, err := RunCtx(context.Background(), ckJob(1000, 5, nil), Options{Parallelism: 1,
		Checkpoint: &CheckpointConfig{Period: time.Hour, Sink: func(*Checkpoint) { snaps++ }}})
	if err != nil {
		t.Fatal(err)
	}
	if snaps != 0 {
		t.Errorf("hour-long period over a millisecond run: %d snapshots, want 0", snaps)
	}
}

func TestCheckpointFlushOnCancelCoversCompletedShards(t *testing.T) {
	// Cancel with a coarse cadence in flight: the flush on the cancel
	// path must persist shards completed since the last snapshot.
	const trials = 1000
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var last *Checkpoint
	shardsDone := 0
	job := ckJob(trials, 9, nil)
	inner := job.Trial
	job.Trial = func(rng *rand.Rand, trial int, acc Accumulator) {
		inner(rng, trial, acc)
		if trial%DefaultShardSize == DefaultShardSize-1 {
			shardsDone++
			if shardsDone == 6 {
				cancel()
			}
		}
	}
	_, err := RunCtx(ctx, job, Options{Parallelism: 1,
		Checkpoint: &CheckpointConfig{Period: time.Hour, Sink: func(cp *Checkpoint) { last = cp }}})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
	if last == nil {
		t.Fatal("cancel did not flush a checkpoint")
	}
	if want := 6 * DefaultShardSize; last.Done() != want {
		t.Errorf("flushed checkpoint covers %d trials, want %d", last.Done(), want)
	}
}

// TestCheckpointSnapshotsStayBounded: a job of 4,096 shards snapshotting
// after every shard. Each snapshot holds the folded prefix plus the
// shards that finished ahead of an earlier one, never more than
// workers+1 blobs, however long the job; the last covers every trial
// and resumes to the uninterrupted result without running a trial.
func TestCheckpointSnapshotsStayBounded(t *testing.T) {
	const trials, seed = 4096 * DefaultShardSize, 31
	want := run(ckJob(trials, seed, nil), Options{Parallelism: 1}).(*ckSum)
	for _, par := range []int{1, 4} {
		var last *Checkpoint
		snaps, widest := 0, 0
		_, err := RunCtx(context.Background(), ckJob(trials, seed, nil), Options{Parallelism: par,
			Checkpoint: &CheckpointConfig{Sink: func(cp *Checkpoint) {
				snaps++
				widest = max(widest, len(cp.Shards))
				last = cp
			}}})
		if err != nil {
			t.Fatal(err)
		}
		if snaps != 4096 {
			t.Errorf("parallelism %d: %d snapshots, want one per shard", par, snaps)
		}
		if widest > par+1 {
			t.Errorf("parallelism %d: a snapshot held %d blobs, want at most %d", par, widest, par+1)
		}
		if last.Done() != trials || last.Folded != 4096 || len(last.Shards) != 1 {
			t.Fatalf("parallelism %d: last snapshot covers %d/%d trials, folded %d, %d blobs",
				par, last.Done(), trials, last.Folded, len(last.Shards))
		}
		var executed atomic.Int64
		acc, err := RunCtx(context.Background(), ckJob(trials, seed, &executed), Options{Parallelism: par,
			Checkpoint: &CheckpointConfig{Resume: last}})
		if err != nil {
			t.Fatal(err)
		}
		if got := acc.(*ckSum); got.sum != want.sum || got.count != want.count || executed.Load() != 0 {
			t.Errorf("parallelism %d: resumed sum %v (count %d) after %d trials, want %v (%d) after none",
				par, got.sum, got.count, executed.Load(), want.sum, want.count)
		}
	}
}

// TestCheckpointFoldedResume resumes from every snapshot of a run, each a
// prefix folded over k shards, and from that prefix under a Folded
// value the job cannot have. A valid prefix skips exactly its k shards;
// any other Folded makes the resume ignore the checkpoint and re-run
// everything. Either way the result is the uninterrupted one.
func TestCheckpointFoldedResume(t *testing.T) {
	const trials, seed, shards = 10 * DefaultShardSize, 19, 10
	want := run(ckJob(trials, seed, nil), Options{Parallelism: 1}).(*ckSum)
	var snaps []*Checkpoint
	_, err := RunCtx(context.Background(), ckJob(trials, seed, nil), Options{Parallelism: 1,
		Checkpoint: &CheckpointConfig{Sink: func(cp *Checkpoint) { snaps = append(snaps, cp) }}})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != shards {
		t.Fatalf("%d snapshots, want %d", len(snaps), shards)
	}
	resume := func(cp *Checkpoint, par int) (int64, *ckSum) {
		var executed atomic.Int64
		acc, err := RunCtx(context.Background(), ckJob(trials, seed, &executed), Options{Parallelism: par,
			Checkpoint: &CheckpointConfig{Resume: cp}})
		if err != nil {
			t.Fatal(err)
		}
		return executed.Load(), acc.(*ckSum)
	}
	for i, cp := range snaps {
		k := i + 1
		if folded := max(cp.Folded, 1); folded != k || len(cp.Shards) != 1 || cp.Done() != k*DefaultShardSize {
			t.Fatalf("snapshot %d: folded %d, %d blobs, %d trials", k, cp.Folded, len(cp.Shards), cp.Done())
		}
		for _, par := range []int{1, 4} {
			n, got := resume(cp, par)
			if int(n) != trials-k*DefaultShardSize || got.sum != want.sum || got.count != want.count {
				t.Errorf("prefix of %d shards, parallelism %d: ran %d trials, sum %v (count %d); want %d, %v (%d)",
					k, par, n, got.sum, got.count, trials-k*DefaultShardSize, want.sum, want.count)
			}
		}
	}
	for _, folded := range []int{-1, shards + 1, math.MaxInt} {
		cp := *snaps[4]
		cp.Folded = folded
		if n, got := resume(&cp, 4); n != trials || got.sum != want.sum || got.count != want.count {
			t.Errorf("folded %d: ran %d trials, sum %v; want all %d, %v", folded, n, got.sum, trials, want.sum)
		}
	}
}

func TestMapScratchResumeBitIdentical(t *testing.T) {
	// The Map helpers thread Options.Checkpoint straight through to the
	// engine; their mapAcc gob-encodes, so map jobs checkpoint too. The
	// value type's fields must be exported — mirrors the sim fan-outs.
	type cell struct{ V float64 }
	run := func(opts Options, executed *atomic.Int64) ([]cell, error) {
		return MapScratchCtx(context.Background(), 40, 21, opts,
			func() int { return 0 },
			func(rng *rand.Rand, i int, _ int) cell {
				if executed != nil {
					executed.Add(1)
				}
				return cell{V: rng.Float64() * float64(i+1)}
			})
	}
	want, err := run(Options{ShardSize: 1, Parallelism: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupt after 10 of the 40 single-trial shards.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cp *Checkpoint
	snaps := 0
	opts := Options{ShardSize: 1, Parallelism: 1, Checkpoint: &CheckpointConfig{Sink: func(c *Checkpoint) {
		cp = c
		if snaps++; snaps == 10 {
			cancel()
		}
	}}}
	_, err = MapScratchCtx(ctx, 40, 21, opts,
		func() int { return 0 },
		func(rng *rand.Rand, i int, _ int) cell { return cell{V: rng.Float64() * float64(i+1)} })
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}

	var executed atomic.Int64
	got, err := run(Options{ShardSize: 1, Parallelism: 1, Checkpoint: &CheckpointConfig{Resume: cp}}, &executed)
	if err != nil {
		t.Fatal(err)
	}
	if int(executed.Load()) != 40-cp.Done() {
		t.Errorf("resume executed %d trials, want %d", executed.Load(), 40-cp.Done())
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cell %d: resumed %v, want bit-identical %v", i, got[i], want[i])
		}
	}
}

// mapBlob is the snapshot a map shard holding results vals for trials idx
// writes.
func mapBlob(t testing.TB, idx []int, vals []float64) []byte {
	t.Helper()
	b, err := (&mapAcc[float64]{idx: idx, vals: vals}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// FuzzMapCheckpointResume resumes a 4-trial map job of two 2-trial
// shards from one fuzzed blob at a fuzzed shard index. The resume must
// never panic or fail, and must equal an uninterrupted run at
// parallelism 1 and 4 — except that a blob holding exactly the shard's
// trials, in order, one value each, is a valid snapshot whose values
// take the place of the shard's. The first two seeds are the blobs that
// panicked (trial 99) and that returned [0 0 2.5 3.5] with no error
// (shard 1's trials restored as shard 0).
func FuzzMapCheckpointResume(f *testing.F) {
	const n, size = 4, 2
	mapJob := func(opts Options, cp *Checkpoint) ([]float64, error) {
		opts.ShardSize = size
		opts.Checkpoint = &CheckpointConfig{Resume: cp}
		return MapScratchCtx(context.Background(), n, 3, opts,
			func() int { return 0 },
			func(_ *rand.Rand, i int, _ int) float64 { return float64(i) + 0.5 })
	}
	want, err := mapJob(Options{Parallelism: 1}, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(int8(0), mapBlob(f, []int{99}, []float64{7}))
	f.Add(int8(0), mapBlob(f, []int{2, 3}, []float64{2.5, 3.5}))
	f.Add(int8(1), mapBlob(f, []int{2, 3}, []float64{-1, math.Inf(1)}))
	f.Add(int8(0), mapBlob(f, []int{0, 1}, []float64{0.5}))
	f.Add(int8(1), mapBlob(f, []int{2, 3, 4}, []float64{1, 2, 3}))
	f.Add(int8(-1), mapBlob(f, []int{0, 1}, []float64{0.5, 1.5}))
	f.Add(int8(0), []byte("not gob"))
	f.Fuzz(func(t *testing.T, shard int8, blob []byte) {
		s := int(shard)
		expect := append([]float64(nil), want...)
		var dec mapAcc[float64]
		if s >= 0 && s < n/size && dec.UnmarshalBinary(blob) == nil &&
			len(dec.idx) == size && len(dec.vals) == size && dec.idx[0] == s*size && dec.idx[1] == s*size+1 {
			copy(expect[s*size:], dec.vals)
		}
		cp := &Checkpoint{Trials: n, Seed: 3, ShardSize: size, Shards: map[int][]byte{s: blob}}
		for _, p := range []int{1, 4} {
			got, err := mapJob(Options{Parallelism: p}, cp)
			if err != nil {
				t.Fatalf("parallelism %d: %v", p, err)
			}
			for i := range expect {
				if math.Float64bits(got[i]) != math.Float64bits(expect[i]) {
					t.Fatalf("parallelism %d: resumed %v, want %v", p, got, expect)
				}
			}
		}
	})
}

func TestCheckpointJSONRoundTrip(t *testing.T) {
	// The server persists checkpoints as JSON; the blobs must survive the
	// base64 round trip and resume bit-identically.
	const trials, seed = 500, 17
	cp := interrupt(t, ckJob(trials, seed, nil), Options{Parallelism: 1}, nil, 4)
	blob, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	var back Checkpoint
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}

	want := run(ckJob(trials, seed, nil), Options{Parallelism: 1}).(*ckSum)
	acc, err := RunCtx(context.Background(), ckJob(trials, seed, nil), Options{Parallelism: 1,
		Checkpoint: &CheckpointConfig{Resume: &back}})
	if err != nil {
		t.Fatal(err)
	}
	if got := acc.(*ckSum); got.sum != want.sum || got.count != want.count {
		t.Errorf("after JSON round trip: sum %v (count %d), want %v (%d)", got.sum, got.count, want.sum, want.count)
	}
}

func TestResumerAlignsJobSequence(t *testing.T) {
	// Two consecutive engine jobs under one Resumer; interrupt during the
	// second, rebuild a Resumer from the persisted map, and re-run both.
	// Job 0 must restore fully, job 1 partially, results bit-identical.
	const trials, seedA, seedB = 500, 23, 29
	wantA := run(ckJob(trials, seedA, nil), Options{Parallelism: 1}).(*ckSum)
	wantB := run(ckJob(trials, seedB, nil), Options{Parallelism: 1}).(*ckSum)

	var saved map[int]*Checkpoint
	persist := func(family map[int]*Checkpoint) { saved = family }

	// First attempt: job A completes, job B is cancelled after 3 shards.
	r := NewResumer(nil, 0, persist)
	if _, err := RunCtx(context.Background(), ckJob(trials, seedA, nil), Options{Parallelism: 1, Checkpoint: r.JobCheckpoint()}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ckB := r.JobCheckpoint()
	snaps := 0
	sink := ckB.Sink
	ckB.Sink = func(cp *Checkpoint) {
		sink(cp)
		if snaps++; snaps == 3 {
			cancel()
		}
	}
	if _, err := RunCtx(ctx, ckJob(trials, seedB, nil), Options{Parallelism: 1, Checkpoint: ckB}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
	if saved[0] == nil || saved[0].Done() != trials || saved[1] == nil || saved[1].Done() == 0 {
		t.Fatalf("persisted checkpoints wrong: job0=%v job1=%v", saved[0], saved[1])
	}

	// Second attempt from the persisted map: the sequence indices line up.
	var execA, execB atomic.Int64
	r2 := NewResumer(saved, 0, nil)
	accA, err := RunCtx(context.Background(), ckJob(trials, seedA, &execA), Options{Parallelism: 1, Checkpoint: r2.JobCheckpoint()})
	if err != nil {
		t.Fatal(err)
	}
	accB, err := RunCtx(context.Background(), ckJob(trials, seedB, &execB), Options{Parallelism: 1, Checkpoint: r2.JobCheckpoint()})
	if err != nil {
		t.Fatal(err)
	}
	if execA.Load() != 0 {
		t.Errorf("job A executed %d trials on resume, want 0 (fully checkpointed)", execA.Load())
	}
	if int(execB.Load()) != trials-saved[1].Done() {
		t.Errorf("job B executed %d trials on resume, want %d", execB.Load(), trials-saved[1].Done())
	}
	if got := accA.(*ckSum); got.sum != wantA.sum {
		t.Errorf("job A: sum %v, want %v", got.sum, wantA.sum)
	}
	if got := accB.(*ckSum); got.sum != wantB.sum {
		t.Errorf("job B: sum %v, want %v", got.sum, wantB.sum)
	}
}
