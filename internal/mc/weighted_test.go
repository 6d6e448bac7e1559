package mc

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"arcc/internal/rng"
)

// legacySumAcc mirrors the sum-and-divide accumulators the plain
// lifetime jobs use: per-dimension running sums plus a trial count,
// merged elementwise in shard order.
type legacySumAcc struct {
	sums  []float64
	count int
}

func (a *legacySumAcc) Merge(other Accumulator) {
	o := other.(*legacySumAcc)
	for i := range a.sums {
		a.sums[i] += o.sums[i]
	}
	a.count += o.count
}

// weightedObs fills vals deterministically from the trial's stream, the
// same way for both engines under test: a weighted trial's rng.Source
// and a plain trial's *rand.Rand over the same shard stream.
func weightedObs(r interface{ Float64() float64 }, vals []float64) {
	for i := range vals {
		vals[i] = r.Float64() * float64(i+1)
	}
}

// TestRunWeightedAllOnesBitIdentical is the weights-all-one equivalence
// property: a weighted job whose every trial returns weight 1 must
// reproduce the legacy sum-and-divide accumulator bit for bit — same
// additions in the same shard order, then one division.
func TestRunWeightedAllOnesBitIdentical(t *testing.T) {
	const dims, trials = 3, 1000
	set := runWeighted(WeightedJob{
		Trials: trials,
		Seed:   42,
		Dims:   dims,
		Trial: func(src *rng.Source, trial int, _ any, vals []float64) float64 {
			weightedObs(src, vals)
			return 1
		},
	}, Options{Parallelism: 4})

	acc := run(Job{
		Trials: trials,
		Seed:   42,
		NewAcc: func() Accumulator { return &legacySumAcc{sums: make([]float64, dims)} },
		Trial: func(rng *rand.Rand, trial int, a Accumulator) {
			la := a.(*legacySumAcc)
			vals := make([]float64, dims)
			weightedObs(rng, vals)
			for i, v := range vals {
				la.sums[i] += v
			}
			la.count++
		},
	}, Options{Parallelism: 4}).(*legacySumAcc)

	for i := 0; i < dims; i++ {
		want := acc.sums[i] / float64(acc.count)
		got := set.Dims[i].Mean()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("dim %d: weighted mean %v != legacy mean %v (bitwise)", i, got, want)
		}
		if set.Dims[i].N() != trials {
			t.Fatalf("dim %d: N = %d, want %d", i, set.Dims[i].N(), trials)
		}
		if ess := set.Dims[i].ESS(); math.Abs(ess-trials) > 1e-6 {
			t.Fatalf("dim %d: unit-weight ESS = %v, want %d", i, ess, trials)
		}
	}
}

// TestRunWeightedParallelismDeterminism: the full result — estimators
// and sketches — must be identical at any worker count.
func TestRunWeightedParallelismDeterminism(t *testing.T) {
	job := WeightedJob{
		Trials:     2000,
		Seed:       7,
		Dims:       2,
		SketchDims: []int{1},
		SketchK:    64,
		Trial: func(src *rng.Source, trial int, _ any, vals []float64) float64 {
			weightedObs(src, vals)
			return 0.5 + src.Float64()
		},
	}
	base := runWeighted(job, Options{Parallelism: 1})
	for _, p := range []int{4, runtime.GOMAXPROCS(0)} {
		got := runWeighted(job, Options{Parallelism: p})
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("parallelism %d result differs from serial run", p)
		}
	}
}

func TestRunWeightedSketch(t *testing.T) {
	set := runWeighted(WeightedJob{
		Trials:     5000,
		Seed:       3,
		Dims:       2,
		SketchDims: []int{0},
		Trial: func(src *rng.Source, trial int, _ any, vals []float64) float64 {
			vals[0] = src.Float64()
			vals[1] = src.NormFloat64()
			return 1
		},
	}, Options{})
	sk := set.Sketch(0)
	if sk == nil {
		t.Fatal("requested sketch missing")
	}
	if set.Sketch(1) != nil {
		t.Fatal("unrequested sketch present")
	}
	if sk.N != 5000 {
		t.Fatalf("sketch N = %d, want 5000", sk.N)
	}
	if p50 := sk.Quantile(0.5); math.Abs(p50-0.5) > 0.05 {
		t.Fatalf("uniform median estimate %v", p50)
	}
}

func TestRunWeightedScratch(t *testing.T) {
	type ws struct{ buf []float64 }
	set := runWeighted(WeightedJob{
		Trials:     500,
		Seed:       9,
		Dims:       1,
		NewScratch: func() any { return &ws{buf: make([]float64, 8)} },
		Trial: func(src *rng.Source, trial int, scratch any, vals []float64) float64 {
			s := scratch.(*ws)
			for i := range s.buf {
				s.buf[i] = src.Float64()
			}
			vals[0] = s.buf[3]
			return 1
		},
	}, Options{Parallelism: 4})
	if set.Dims[0].N() != 500 {
		t.Fatalf("N = %d", set.Dims[0].N())
	}
}

func TestRunWeightedCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunWeightedCtx(ctx, WeightedJob{
		Trials: 100,
		Dims:   1,
		Trial: func(src *rng.Source, trial int, _ any, vals []float64) float64 {
			vals[0] = src.Float64()
			return 1
		},
	}, Options{})
	if err != ErrCanceled {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// TestRunWeightedCheckpointResume: a weighted run resumed from a
// mid-run snapshot must be bit-identical to an uninterrupted run.
func TestRunWeightedCheckpointResume(t *testing.T) {
	job := WeightedJob{
		Trials:     1000,
		Seed:       11,
		Dims:       2,
		SketchDims: []int{0},
		SketchK:    32,
		Trial: func(src *rng.Source, trial int, _ any, vals []float64) float64 {
			weightedObs(src, vals)
			return 1 + src.Float64()
		},
	}
	full := runWeighted(job, Options{Parallelism: 1})

	var snap *Checkpoint
	ctx, cancel := context.WithCancel(context.Background())
	_, err := RunWeightedCtx(ctx, job, Options{
		Parallelism: 1,
		Checkpoint: &CheckpointConfig{Sink: func(c *Checkpoint) {
			if c.Done() >= 5*DefaultShardSize {
				snap = c
				cancel()
			}
		}},
	})
	if err != ErrCanceled {
		t.Fatalf("interrupted run: err = %v, want ErrCanceled", err)
	}
	if snap == nil || len(snap.Shards) == 0 {
		t.Fatal("no snapshot captured before cancel")
	}

	resumed, err := RunWeightedCtx(context.Background(), job, Options{
		Parallelism: 1,
		Checkpoint:  &CheckpointConfig{Resume: snap},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, resumed) {
		t.Fatal("resumed run differs from uninterrupted run")
	}
}

func TestRunWeightedPanics(t *testing.T) {
	ok := func(src *rng.Source, trial int, _ any, vals []float64) float64 {
		vals[0] = src.Float64()
		return 1
	}
	for name, f := range map[string]func(){
		"zero dims":      func() { runWeighted(WeightedJob{Trials: 1, Dims: 0, Trial: ok}, Options{}) },
		"nil trial":      func() { runWeighted(WeightedJob{Trials: 1, Dims: 1}, Options{}) },
		"sketch dim oob": func() { runWeighted(WeightedJob{Trials: 1, Dims: 1, SketchDims: []int{1}, Trial: ok}, Options{}) },
		"sketch dim dup": func() { runWeighted(WeightedJob{Trials: 1, Dims: 1, SketchDims: []int{0, 0}, Trial: ok}, Options{}) },
		"negative weight": func() {
			runWeighted(WeightedJob{Trials: 1, Dims: 1, Trial: func(*rng.Source, int, any, []float64) float64 { return -1 }}, Options{})
		},
		"nan weight": func() {
			runWeighted(WeightedJob{Trials: 1, Dims: 1, Trial: func(*rng.Source, int, any, []float64) float64 { return math.NaN() }}, Options{})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func BenchmarkRunWeighted(b *testing.B) {
	job := WeightedJob{
		Trials: 10_000,
		Seed:   1,
		Dims:   8,
		Trial: func(src *rng.Source, trial int, _ any, vals []float64) float64 {
			weightedObs(src, vals)
			return 1
		},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runWeighted(job, Options{Parallelism: 4})
	}
}

// BenchmarkRunCheckpointed is a weighted job of 2,048 shards on the
// lifetime Monte Carlo's shape (seven yearly dimensions, the last
// sketched) that snapshots after every shard into a sink JSON-encoding
// the checkpoint, as the sweep service's store does: what checkpointing
// costs a long job, per job.
func BenchmarkRunCheckpointed(b *testing.B) {
	job := WeightedJob{
		Trials:     2048 * DefaultShardSize,
		Seed:       1,
		Dims:       7,
		SketchDims: []int{6},
		Trial: func(src *rng.Source, trial int, _ any, vals []float64) float64 {
			weightedObs(src, vals)
			return 1
		},
	}
	sink := func(cp *Checkpoint) {
		if _, err := json.Marshal(cp); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runWeighted(job, Options{Parallelism: 1, Checkpoint: &CheckpointConfig{Sink: sink}})
	}
}

// shapeJob is a small weighted job with a sketch: 5 shards of 8 trials.
func shapeJob(dims int, sketchK int) WeightedJob {
	return WeightedJob{
		Trials:     40,
		Seed:       5,
		Dims:       dims,
		SketchDims: []int{dims - 1},
		SketchK:    sketchK,
		Trial: func(src *rng.Source, trial int, _ any, vals []float64) float64 {
			weightedObs(src, vals)
			return 0.5 + src.Float64()
		},
	}
}

const shapeShard = 8

// snapshotWeighted returns the per-shard checkpoint of job's first
// shards shards (all of them when shards is the job's shard count), each
// shard's blob on its own.
func snapshotWeighted(t testing.TB, job WeightedJob, shards int) *Checkpoint {
	t.Helper()
	return perShard(t, job.engineJob(), shapeShard, shards)
}

// sameSet compares two weighted sets bit for bit through their snapshot
// bytes, which are canonical: equal sets encode to equal bytes (pinned by
// TestWeightedSnapshotCanonical).
func sameSet(t testing.TB, got, want *WeightedSet) bool {
	t.Helper()
	g, err := (&weightedAcc{set: got}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	w, err := (&weightedAcc{set: want}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return string(g) == string(w)
}

// gobWeightedBlob is a shard snapshot in the gob image earlier versions
// wrote: one fresh gob.Encoder per set, exactly as their MarshalBinary
// did.
func gobWeightedBlob(t testing.TB, set *WeightedSet) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(set); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// snapshotSet is a one-shard weighted set with the seven yearly
// dimensions of a default lifetime run, from a real run; when sketched it
// also sketches the final year at per-level capacity sketchK.
func snapshotSet(t testing.TB, sketched bool, sketchK int) (*WeightedSet, WeightedJob) {
	t.Helper()
	job := WeightedJob{
		Trials: DefaultShardSize,
		Seed:   19,
		Dims:   7,
		Trial: func(src *rng.Source, _ int, _ any, vals []float64) float64 {
			weightedObs(src, vals)
			return 0.5 + src.Float64()
		},
	}
	if sketched {
		job.SketchDims, job.SketchK = []int{6}, sketchK
	}
	return runWeighted(job, Options{Parallelism: 1}), job
}

// TestWeightedSnapshotRoundTripBitExact: every word of a set survives the
// snapshot round trip bit for bit — -0, NaN payloads, ±Inf and subnormals
// included — and so does a sketch spread over several levels.
func TestWeightedSnapshotRoundTripBitExact(t *testing.T) {
	special := []float64{
		math.Copysign(0, -1),
		math.Float64frombits(0x7ff8_0000_0000_0123), // quiet NaN with a payload
		math.Float64frombits(0x7ff0_0000_0000_0001), // signalling NaN
		math.Float64frombits(0xfff8_dead_beef_0000), // negative NaN
		math.Inf(1),
		math.Inf(-1),
		math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000f_ffff_ffff_ffff), // largest subnormal
		-math.MaxFloat64,
	}
	set, job := snapshotSet(t, true, 4)
	sk := set.Sketches[0]
	if len(sk.Levels) < 3 {
		t.Fatalf("sketch spans %d levels, want a multi-level one", len(sk.Levels))
	}
	k := 0
	next := func() float64 { v := special[k%len(special)]; k++; return v }
	for i := range set.Dims {
		d := &set.Dims[i]
		d.SumWX, d.SumW, d.SumW2, d.Y.Mean, d.Y.M2 = next(), next(), next(), next(), next()
	}
	for _, lvl := range sk.Levels {
		for i := range lvl {
			lvl[i] = next()
		}
	}
	blob, err := (&weightedAcc{set: set}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back := &weightedAcc{set: newWeightedSet(job)}
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if !sameSet(t, back.set, set) {
		t.Fatal("round trip changed the set")
	}
}

// TestWeightedSnapshotCanonical: equal sets encode to equal bytes — the
// same set reached at another parallelism, a sketch level empty or nil —
// and a set differing in one bit does not.
func TestWeightedSnapshotCanonical(t *testing.T) {
	job := shapeJob(3, 8)
	a := runWeighted(job, Options{Parallelism: 1, ShardSize: shapeShard})
	b := runWeighted(job, Options{Parallelism: 4, ShardSize: shapeShard})
	blobA, _ := (&weightedAcc{set: a}).MarshalBinary()
	blobB, _ := (&weightedAcc{set: b}).MarshalBinary()
	if !bytes.Equal(blobA, blobB) {
		t.Fatal("equal sets encode to different bytes")
	}
	emptied := 0
	for _, sk := range a.Sketches {
		for i, lvl := range sk.Levels {
			if len(lvl) == 0 {
				sk.Levels[i] = nil
				emptied++
			}
		}
	}
	if emptied == 0 {
		t.Fatal("no empty sketch level to compare with nil")
	}
	if blob, _ := (&weightedAcc{set: a}).MarshalBinary(); !bytes.Equal(blob, blobA) {
		t.Fatal("nil and empty sketch levels encode differently")
	}
	a.Dims[0].SumW2 = math.Float64frombits(math.Float64bits(a.Dims[0].SumW2) ^ 1)
	if blob, _ := (&weightedAcc{set: a}).MarshalBinary(); bytes.Equal(blob, blobA) {
		t.Fatal("sets one bit apart encode to equal bytes")
	}
}

// TestWeightedSnapshotMarshalAllocs: the encoder sizes its buffer exactly
// and allocates nothing else.
func TestWeightedSnapshotMarshalAllocs(t *testing.T) {
	for _, sketched := range []bool{false, true} {
		set, _ := snapshotSet(t, sketched, 0)
		acc := &weightedAcc{set: set}
		var blob []byte
		if n := testing.AllocsPerRun(100, func() { blob, _ = acc.MarshalBinary() }); n > 1 {
			t.Errorf("sketched=%v: MarshalBinary made %v allocations, want at most 1", sketched, n)
		}
		if len(blob) != cap(blob) {
			t.Errorf("sketched=%v: blob of %d bytes in a %d-byte buffer", sketched, len(blob), cap(blob))
		}
	}
}

// otherLayouts returns shard blobs that are not the fixed-layout image of
// the real shard snapshot real: the gob image earlier versions wrote of
// the same set, the blob cut short or with a byte appended, and one whose
// dimension count runs past its length.
func otherLayouts(t testing.TB, job WeightedJob, real []byte) map[string][]byte {
	t.Helper()
	acc := &weightedAcc{set: newWeightedSet(job)}
	if err := acc.UnmarshalBinary(real); err != nil {
		t.Fatal(err)
	}
	huge := bytes.Clone(real)
	huge[8] = 0x7f // the high byte of the dimension count
	return map[string][]byte{
		"gob image":      gobWeightedBlob(t, acc.set),
		"truncated":      real[:len(real)-1],
		"trailing byte":  append(bytes.Clone(real), 0),
		"huge dim count": huge,
	}
}

// TestWeightedSnapshotRejectsOtherLayouts: no blob but the fixed-layout
// image decodes — not a blob in another layout, and no prefix of a real
// one.
func TestWeightedSnapshotRejectsOtherLayouts(t *testing.T) {
	job := shapeJob(3, 8)
	real := snapshotWeighted(t, job, 5).Shards[1]
	for name, blob := range otherLayouts(t, job, real) {
		if err := (&weightedAcc{set: newWeightedSet(job)}).UnmarshalBinary(blob); err == nil {
			t.Errorf("%s: blob decoded", name)
		}
	}
	for n := range real {
		if err := (&weightedAcc{set: newWeightedSet(job)}).UnmarshalBinary(real[:n]); err == nil {
			t.Fatalf("the %d-byte prefix of a %d-byte blob decoded", n, len(real))
		}
	}
}

// BenchmarkWeightedSnapshot is one shard's checkpoint round trip on the
// lifetime Monte Carlo's shape: seven yearly dimensions, with and without
// a sketch of the final year (default capacity).
func BenchmarkWeightedSnapshot(b *testing.B) {
	for _, sketched := range []bool{false, true} {
		name := "plain"
		if sketched {
			name = "final-year-sketch"
		}
		b.Run(name, func(b *testing.B) {
			set, job := snapshotSet(b, sketched, 0)
			acc := &weightedAcc{set: set}
			dst := &weightedAcc{set: newWeightedSet(job)}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				blob, err := acc.MarshalBinary()
				if err != nil {
					b.Fatal(err)
				}
				if err := dst.UnmarshalBinary(blob); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestRunWeightedResumeRejectsForeignShape: a checkpoint taken from a
// weighted job of another shape but the same (Trials, Seed, ShardSize),
// or holding a blob in another layout, must be ignored shard by shard, so
// the resumed run re-executes exactly those shards and equals an
// uninterrupted run. Before the shape check, a partial 2-dimension
// checkpoint made a 3-dimension resume panic while merging, and a full
// one returned the 2-dimension set with no error.
func TestRunWeightedResumeRejectsForeignShape(t *testing.T) {
	job := shapeJob(3, 8)
	var executed atomic.Int64
	trial := job.Trial
	job.Trial = func(src *rng.Source, i int, sc any, vals []float64) float64 {
		executed.Add(1)
		return trial(src, i, sc, vals)
	}
	want := runWeighted(job, Options{Parallelism: 1, ShardSize: shapeShard})
	// withShard returns the job's full snapshot with shard s's blob
	// replaced.
	withShard := func(s int, blob []byte) *Checkpoint {
		cp := snapshotWeighted(t, job, 5)
		cp.Shards[s] = blob
		return cp
	}

	// A blob of the right shape whose shard-3 sketch claims one more
	// observation than its items weigh.
	real := snapshotWeighted(t, job, 5).Shards
	acc := &weightedAcc{set: newWeightedSet(job)}
	if err := acc.UnmarshalBinary(real[3]); err != nil {
		t.Fatal(err)
	}
	acc.set.Sketches[0].N++
	miscounted, err := acc.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	type resumeCase struct {
		snap  *Checkpoint
		rerun int // trials the resume must execute
	}
	const all = 5 * shapeShard
	cases := map[string]resumeCase{
		"sketch weight": {withShard(3, miscounted), shapeShard},
		"partial 2-dim": {snapshotWeighted(t, shapeJob(2, 8), 2), all},
		"full 2-dim":    {snapshotWeighted(t, shapeJob(2, 8), 5), all},
		"full other K":  {snapshotWeighted(t, shapeJob(3, 16), 5), all},
		"no sketch": {snapshotWeighted(t, WeightedJob{Trials: 40, Seed: 5, Dims: 3,
			Trial: func(src *rng.Source, _ int, _ any, vals []float64) float64 { weightedObs(src, vals); return 1 }}, 5), all},
	}
	for name, blob := range otherLayouts(t, job, real[1]) {
		cases[name] = resumeCase{withShard(1, blob), shapeShard}
	}
	for name, c := range cases {
		for _, p := range []int{1, 4} {
			executed.Store(0)
			got, err := RunWeightedCtx(context.Background(), job, Options{
				Parallelism: p,
				ShardSize:   shapeShard,
				Checkpoint:  &CheckpointConfig{Resume: c.snap},
			})
			if err != nil {
				t.Fatalf("%s, parallelism %d: %v", name, p, err)
			}
			if n := executed.Load(); n != int64(c.rerun) {
				t.Errorf("%s, parallelism %d: resume ran %d trials, want %d", name, p, n, c.rerun)
			}
			if !sameSet(t, got, want) {
				t.Fatalf("%s, parallelism %d: resumed set differs from an uninterrupted run", name, p)
			}
		}
	}
}

// FuzzWeightedCheckpointResume feeds a weighted job checkpoints of its
// own shape whose Folded value, shard map and blobs the fuzzer picks. A
// resume must never panic or fail, must give the same set at
// parallelism 1 and 4, and must equal the shard-order fold of what it
// may accept: the Shards[0] blob in place of the first max(folded, 1)
// shards and each later blob in place of its shard, wherever the blob
// decodes, the real shard otherwise. A Folded outside [0, shards] makes
// the resume ignore the checkpoint and equal an uninterrupted run. keep
// selects which real blobs go in (bit 0: the real prefix of the folded
// shards), and idx places blobA and blobB (arbitrary bytes) at arbitrary
// indexes.
func FuzzWeightedCheckpointResume(f *testing.F) {
	const shards = 5
	job := shapeJob(3, 8)
	full := runWeighted(job, Options{Parallelism: 1, ShardSize: shapeShard})
	snaps := snapshotWeighted(f, job, shards).Shards
	// prefixes[k] is the engine's snapshot blob of shards [0, k).
	prefixes := [][]byte{nil}
	_, err := RunWeightedCtx(context.Background(), job, Options{Parallelism: 1, ShardSize: shapeShard,
		Checkpoint: &CheckpointConfig{Sink: func(c *Checkpoint) { prefixes = append(prefixes, c.Shards[0]) }}})
	if err != nil || len(prefixes) != shards+1 {
		f.Fatalf("snapshot run: err %v, %d prefixes", err, len(prefixes)-1)
	}
	f.Add(uint8(0x1f), int8(0), []byte{}, []byte{}, []byte{})
	f.Add(uint8(0x05), int8(0), []byte{1, 3}, []byte("not gob"), snaps[0][:len(snaps[0])/2])
	f.Add(uint8(0x0a), int8(0), []byte{0, 255, 9}, snaps[2], snaps[4])
	f.Add(uint8(0x00), int8(0), []byte{4}, snapshotWeighted(f, shapeJob(2, 8), shards).Shards[4], []byte{})
	real := &weightedAcc{set: newWeightedSet(job)}
	if err := real.UnmarshalBinary(snaps[3]); err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(0x17), int8(0), []byte{3}, gobWeightedBlob(f, real.set), []byte{})
	f.Add(uint8(0x19), int8(3), []byte{}, []byte{}, []byte{})
	f.Add(uint8(0x01), int8(5), []byte{}, []byte{}, []byte{})
	f.Add(uint8(0x1f), int8(-1), []byte{0}, prefixes[2], []byte{})
	f.Add(uint8(0x1f), int8(6), []byte{}, []byte{}, []byte{})
	f.Add(uint8(0x10), int8(4), []byte{0, 2}, prefixes[2], snaps[2])
	f.Add(uint8(0x00), int8(2), []byte{0}, prefixes[4], []byte{})
	decode := func(blob []byte) *weightedAcc {
		acc := &weightedAcc{set: newWeightedSet(job)}
		if acc.UnmarshalBinary(blob) != nil {
			return nil
		}
		return acc
	}
	f.Fuzz(func(t *testing.T, keep uint8, folded int8, idx, blobA, blobB []byte) {
		prefix := max(int(folded), 1)
		cp := &Checkpoint{Trials: job.Trials, Seed: job.Seed, ShardSize: shapeShard, Folded: int(folded), Shards: map[int][]byte{}}
		for s := range shards {
			if keep>>s&1 == 1 {
				cp.Shards[s] = snaps[s]
				if s == 0 && prefix <= shards {
					cp.Shards[0] = prefixes[prefix]
				}
			}
		}
		for i, b := range idx {
			s, blob := int(int8(b)), blobA
			if i%2 == 1 {
				blob = blobB
			}
			cp.Shards[s] = blob
		}
		want := full
		if folded >= 0 && int(folded) <= shards {
			out := decode(cp.Shards[0])
			next := prefix
			if out == nil {
				out, next = decode(snaps[0]), 1
			}
			for s := next; s < shards; s++ {
				acc := decode(snaps[s])
				if s >= prefix {
					if a := decode(cp.Shards[s]); a != nil {
						acc = a
					}
				}
				out.Merge(acc)
			}
			want = out.set
		}
		for _, p := range []int{1, 4} {
			got, err := RunWeightedCtx(context.Background(), job, Options{
				Parallelism: p,
				ShardSize:   shapeShard,
				Checkpoint:  &CheckpointConfig{Resume: cp},
			})
			if err != nil {
				t.Fatalf("parallelism %d: %v", p, err)
			}
			if !sameSet(t, got, want) {
				t.Fatalf("parallelism %d: resumed set differs from the fold of the blobs the resume may accept", p)
			}
		}
	})
}
