package mc

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"arcc/internal/rng"
	"arcc/internal/stats"
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

// weightedJob is a weighted job in the form these tests state it: the
// Job that engine returns runs Trials trials on NewWeightedSet(Dims,
// SketchDims...) accumulators, and Shard adds each trial to the shard's
// set.
type weightedJob struct {
	Trials     int
	Seed       int64
	Dims       int
	SketchDims []int
	NewScratch func() any
	Shard      func(src *rng.Source, lo, hi int, scratch any, set *WeightedSet)
}

// newSet returns the empty set of one shard of job.
func (job weightedJob) newSet() *WeightedSet {
	return NewWeightedSet(job.Dims, job.SketchDims...)
}

// engine returns the engine job job runs as.
func (job weightedJob) engine() Job {
	return Job{
		Trials:     job.Trials,
		Seed:       job.Seed,
		NewAcc:     func() Accumulator { return job.newSet() },
		NewScratch: job.NewScratch,
		Shard: func(src *rng.Source, lo, hi int, acc Accumulator, scratch any) {
			job.Shard(src, lo, hi, scratch, acc.(*WeightedSet))
		},
	}
}

// runWeightedCtx runs job through RunCtx and returns its merged set.
func runWeightedCtx(ctx context.Context, job weightedJob, opts Options) (*WeightedSet, error) {
	acc, err := RunCtx(ctx, job.engine(), opts)
	if err != nil {
		return nil, err
	}
	return acc.(*WeightedSet), nil
}

// withTrial returns job with a Shard that runs trial once per trial of
// the shard, in order, and adds the observations it writes with the
// weight it returns: the per-trial form these tests state their jobs in.
// The observation buffer sits in a per-worker scratch beside the one
// job.NewScratch makes, which trial receives (nil when job.NewScratch
// is).
func withTrial(job weightedJob, trial func(src *rng.Source, trial int, scratch any, vals []float64) float64) weightedJob {
	dims, newScratch := job.Dims, job.NewScratch
	job.NewScratch = func() any {
		ts := &trialScratch{vals: make([]float64, dims)}
		if newScratch != nil {
			ts.job = newScratch()
		}
		return ts
	}
	job.Shard = func(src *rng.Source, lo, hi int, scratch any, set *WeightedSet) {
		ts := scratch.(*trialScratch)
		for t := lo; t < hi; t++ {
			w := trial(src, t, ts.job, ts.vals)
			set.Add(ts.vals, w)
		}
	}
	return job
}

// trialScratch is withTrial's per-worker workspace: the job's own
// scratch and the observation buffer.
type trialScratch struct {
	job  any
	vals []float64
}

// TestRunWeightedAllOnesBitIdentical is the weights-all-one equivalence
// property: a weighted job whose every trial returns weight 1 must
// reproduce the legacy sum-and-divide accumulator bit for bit — same
// additions in the same shard order, then one division.
func TestRunWeightedAllOnesBitIdentical(t *testing.T) {
	const dims, trials = 3, 1000
	set := runWeighted(withTrial(weightedJob{
		Trials: trials,
		Seed:   42,
		Dims:   dims,
	}, func(src *rng.Source, trial int, _ any, vals []float64) float64 {
		weightedObs(src, vals)
		return 1
	}), Options{Parallelism: 4})

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
		got := set.Dim(i).Mean()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("dim %d: weighted mean %v != legacy mean %v (bitwise)", i, got, want)
		}
		if set.Dim(i).Y.Count != trials {
			t.Fatalf("dim %d: N = %d, want %d", i, set.Dim(i).Y.Count, trials)
		}
		if ess := set.Dim(i).ESS(); math.Abs(ess-trials) > 1e-6 {
			t.Fatalf("dim %d: unit-weight ESS = %v, want %d", i, ess, trials)
		}
	}
}

// TestRunWeightedParallelismDeterminism: the full result — estimators
// and sketches — must be identical at any worker count.
func TestRunWeightedParallelismDeterminism(t *testing.T) {
	job := withTrial(weightedJob{
		Trials:     2000,
		Seed:       7,
		Dims:       2,
		SketchDims: []int{1},
	}, func(src *rng.Source, trial int, _ any, vals []float64) float64 {
		weightedObs(src, vals)
		return 0.5 + src.Float64()
	})
	base := runWeighted(job, Options{Parallelism: 1})
	for _, p := range []int{4, runtime.GOMAXPROCS(0)} {
		got := runWeighted(job, Options{Parallelism: p})
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("parallelism %d result differs from serial run", p)
		}
	}
}

func TestRunWeightedSketch(t *testing.T) {
	set := runWeighted(withTrial(weightedJob{
		Trials:     5000,
		Seed:       3,
		Dims:       2,
		SketchDims: []int{0},
	}, func(src *rng.Source, trial int, _ any, vals []float64) float64 {
		vals[0] = src.Float64()
		vals[1] = src.NormFloat64()
		return 1
	}), Options{})
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
	set := runWeighted(withTrial(weightedJob{
		Trials:     500,
		Seed:       9,
		Dims:       1,
		NewScratch: func() any { return &ws{buf: make([]float64, 8)} },
	}, func(src *rng.Source, trial int, scratch any, vals []float64) float64 {
		s := scratch.(*ws)
		for i := range s.buf {
			s.buf[i] = src.Float64()
		}
		vals[0] = s.buf[3]
		return 1
	}), Options{Parallelism: 4})
	if set.Dim(0).Y.Count != 500 {
		t.Fatalf("N = %d", set.Dim(0).Y.Count)
	}
}

func TestRunWeightedCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := runWeightedCtx(ctx, withTrial(weightedJob{
		Trials: 100,
		Dims:   1,
	}, func(src *rng.Source, trial int, _ any, vals []float64) float64 {
		vals[0] = src.Float64()
		return 1
	}), Options{})
	if err != ErrCanceled {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// TestRunWeightedCheckpointResume: a weighted run resumed from a
// mid-run snapshot must be bit-identical to an uninterrupted run.
func TestRunWeightedCheckpointResume(t *testing.T) {
	job := withTrial(weightedJob{
		Trials:     1000,
		Seed:       11,
		Dims:       2,
		SketchDims: []int{0},
	}, func(src *rng.Source, trial int, _ any, vals []float64) float64 {
		weightedObs(src, vals)
		return 1 + src.Float64()
	})
	full := runWeighted(job, Options{Parallelism: 1})

	var snap *Checkpoint
	ctx, cancel := context.WithCancel(context.Background())
	_, err := runWeightedCtx(ctx, job, Options{
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

	resumed, err := runWeightedCtx(context.Background(), job, Options{
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

// perDimBlob is the fixed-layout snapshot of the per-dimension
// estimators dims with no sketch, spelled out word by word from the
// layout table on MarshalBinary.
func perDimBlob(dims []stats.Weighted) []byte {
	le := binary.LittleEndian
	b := le.AppendUint64([]byte{weightedFormat}, uint64(len(dims)))
	for _, d := range dims {
		for _, v := range []float64{d.SumWX, d.SumW, d.SumW2} {
			b = le.AppendUint64(b, math.Float64bits(v))
		}
		b = le.AppendUint64(b, uint64(d.Y.Count))
		b = le.AppendUint64(b, math.Float64bits(d.Y.Mean))
		b = le.AppendUint64(b, math.Float64bits(d.Y.M2))
	}
	return le.AppendUint64(b, 0)
}

// sameWeighted reports whether two estimators agree bit for bit.
func sameWeighted(a, b stats.Weighted) bool {
	bits := math.Float64bits
	return bits(a.SumWX) == bits(b.SumWX) && bits(a.SumW) == bits(b.SumW) && bits(a.SumW2) == bits(b.SumW2) &&
		a.Y.Count == b.Y.Count && bits(a.Y.Mean) == bits(b.Y.Mean) && bits(a.Y.M2) == bits(b.Y.M2)
}

// TestWeightedSetMatchesStatsWeighted: a WeightedSet holds the count, Σw
// and Σw² once, yet every dimension must equal the stats.Weighted fed the
// same trials bit for bit — through add with weights 0, 1 and random ones,
// with and without weights of 1e300 (whose square overflows, and whose
// moments soon do), through shard-order merges of 1–64 trials per shard
// into an empty set and into a filled one, and in its snapshot, whose
// bytes stay the per-dimension layout.
func TestWeightedSetMatchesStatsWeighted(t *testing.T) {
	for _, huge := range []bool{false, true} {
		checkWeightedSet(t, huge)
	}
}

func checkWeightedSet(t *testing.T, huge bool) {
	const dims = 7
	r := rand.New(rand.NewSource(3))
	weight := func() float64 {
		switch r.Intn(5) {
		case 0:
			return 0
		case 1:
			return 1
		case 2:
			if huge {
				return 1e300
			}
		}
		return r.ExpFloat64()
	}
	// shard feeds trials random trials to a fresh set and to one
	// stats.Weighted per dimension.
	shard := func(trials int) (*WeightedSet, []stats.Weighted) {
		set := NewWeightedSet(dims)
		ref := make([]stats.Weighted, dims)
		vals := make([]float64, dims)
		for range trials {
			w := weight()
			for i := range vals {
				switch r.Intn(4) {
				case 0:
					vals[i] = 0
				case 1:
					vals[i] = -r.Float64()
				default:
					vals[i] = r.Float64() * float64(i+1)
				}
				ref[i].Add(vals[i], w)
			}
			set.Add(vals, w)
		}
		return set, ref
	}
	check := func(what string, set *WeightedSet, ref []stats.Weighted) {
		t.Helper()
		if len(set.dims) != len(ref) {
			t.Fatalf("%s: %d dimensions, want %d", what, len(set.dims), len(ref))
		}
		for i := range ref {
			if got := set.Dim(i); !sameWeighted(got, ref[i]) {
				t.Fatalf("%s (huge weights %v): dimension %d = %+v, stats.Weighted %+v", what, huge, i, got, ref[i])
			}
		}
		blob, err := set.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if want := perDimBlob(ref); !bytes.Equal(blob, want) {
			t.Fatalf("%s: snapshot is not the per-dimension layout", what)
		}
	}

	set, ref := shard(1000)
	check("add", set, ref)
	if math.IsInf(ref[0].SumW2, 1) != huge || math.IsInf(ref[0].Y.M2, 1) != huge {
		t.Fatalf("huge weights %v: Σw² = %v, M2 = %v", huge, ref[0].SumW2, ref[0].Y.M2)
	}
	for _, into := range []string{"empty", "filled"} {
		set, ref := shard(0)
		if into == "filled" {
			set, ref = shard(40)
		}
		for k := range 50 {
			o, oref := shard(1 + r.Intn(64))
			if k == 7 {
				o, oref = shard(0)
			}
			set.Merge(o)
			for i := range ref {
				ref[i].Merge(oref[i])
			}
			check("merge into "+into, set, ref)
		}
	}
}

// TestWeightedSnapshotRejectsDisagreeingDimensions: a blob in the
// per-dimension layout whose dimensions disagree on the trial count, Σw
// or Σw² has no WeightedSet to stand for, so it does not decode.
func TestWeightedSnapshotRejectsDisagreeingDimensions(t *testing.T) {
	job := weightedJob{Dims: 3}
	set, _ := snapshotSet(t, false, 100)
	base := legacy(set).Dims[:3]
	for name, edit := range map[string]func(*stats.Weighted){
		"count": func(d *stats.Weighted) { d.Y.Count++ },
		"Σw":    func(d *stats.Weighted) { d.SumW = math.Nextafter(d.SumW, 0) },
		"Σw²":   func(d *stats.Weighted) { d.SumW2 = math.Copysign(d.SumW2, -1) },
	} {
		dims := slices.Clone(base)
		if err := job.newSet().UnmarshalBinary(perDimBlob(dims)); err != nil {
			t.Fatalf("%s: the agreeing blob does not decode: %v", name, err)
		}
		edit(&dims[2])
		if err := job.newSet().UnmarshalBinary(perDimBlob(dims)); err == nil {
			t.Errorf("%s: a blob whose dimensions disagree decoded", name)
		}
	}
}

// disagreeingBlob is shard s's snapshot of shapeJob(3) with its last
// dimension claiming one trial more than the others.
func disagreeingBlob(t testing.TB, snaps map[int][]byte, s int) []byte {
	t.Helper()
	acc := shapeJob(3).newSet()
	if err := acc.UnmarshalBinary(snaps[s]); err != nil {
		t.Fatal(err)
	}
	blob, err := acc.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// The count word of dimension 2: format byte, dimension count, two
	// 48-byte dimensions, then SumWX, SumW, SumW2.
	at := 1 + 8 + 2*48 + 3*8
	binary.LittleEndian.PutUint64(blob[at:], binary.LittleEndian.Uint64(blob[at:])+1)
	return blob
}

// TestRunWeightedAllocationsIndependentOfShardSize pins the weighted
// engine's allocations: a trial allocates nothing, so a run of 16 shards
// allocates the same at 1 and at 64 trials per shard, and a shard
// allocates only its accumulator, in two allocations (the set and its
// dimensions), not an observation buffer.
func TestRunWeightedAllocationsIndependentOfShardSize(t *testing.T) {
	allocs := func(shards, size int) float64 {
		job := withTrial(weightedJob{
			Trials: shards * size,
			Seed:   1,
			Dims:   7,
		}, func(src *rng.Source, _ int, _ any, vals []float64) float64 {
			weightedObs(src, vals)
			return 0.5 + src.Float64()
		})
		return testing.AllocsPerRun(20, func() { runWeighted(job, Options{Parallelism: 1, ShardSize: size}) })
	}
	small, large := allocs(16, 1), allocs(16, 64)
	if small != large {
		t.Fatalf("16 shards of 64 trials allocate %v, of 1 trial %v: allocations grow with the trials per shard", large, small)
	}
	if perShard := (allocs(32, 64) - large) / 16; perShard != 2 {
		t.Fatalf("a shard allocates %v times, want 2", perShard)
	}
}

// TestNewWeightedSetPanics: NewWeightedSet panics on a shape no job can
// have, and Add on a weight that is no likelihood ratio.
func TestNewWeightedSetPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"zero dims":       func() { NewWeightedSet(0) },
		"sketch dim oob":  func() { NewWeightedSet(1, 1) },
		"sketch dim neg":  func() { NewWeightedSet(2, -1) },
		"sketch dim dup":  func() { NewWeightedSet(2, 1, 0, 1) },
		"negative weight": func() { NewWeightedSet(1).Add([]float64{0}, -1) },
		"nan weight":      func() { NewWeightedSet(1).Add([]float64{0}, math.NaN()) },
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

// pinnedBlob is a shard snapshot of a two-dimension set sketching
// dimension 1, after 259 trials (trial i observes (i mod 17)/4 and i/8
// with weight 1 + (i mod 3)/2), so its sketch spans two levels: 3 items
// on level 0 and 128 on level 1. It was written by the encoder of the
// release whose weighted jobs had their own job type, and so is the
// layout of the checkpoints that release's served jobs left on disk.
const pinnedBlob = `
8102000000000000000000000000f98740000000000040784000000000008483
400301000000000000224b3c41eab10740b419a274ce7b9140000000003073b8
40000000000040784000000000008483400301000000000000ab712ff0af2a38
40f0af1a774a0bf0400100000000000000010000000000000000010000000000
0003010000000000000200000000000000030000000000000000000000000040
40000000000010404000000000002040408000000000000000000000000000c0
3f000000000000d83f000000000000e43f000000000000ec3f000000000000f2
3f000000000000f63f000000000000fa3f000000000000fe3f00000000000001
4000000000000003400000000000000540000000000000074000000000000009
400000000000000b400000000000000d400000000000000f4000000000008010
4000000000008011400000000000801240000000000080134000000000008014
4000000000008015400000000000801640000000000080174000000000008018
4000000000008019400000000000801a400000000000801b400000000000801c
400000000000801d400000000000801e400000000000801f4000000000004020
400000000000c0204000000000004021400000000000c0214000000000004022
400000000000c0224000000000004023400000000000c0234000000000004024
400000000000c0244000000000004025400000000000c0254000000000004026
400000000000c0264000000000004027400000000000c0274000000000004028
400000000000c0284000000000004029400000000000c029400000000000402a
400000000000c02a400000000000402b400000000000c02b400000000000402c
400000000000c02c400000000000402d400000000000c02d400000000000402e
400000000000c02e400000000000402f400000000000c02f4000000000002030
4000000000006030400000000000a030400000000000e0304000000000002031
4000000000006031400000000000a031400000000000e0314000000000002032
4000000000006032400000000000a032400000000000e0324000000000002033
4000000000006033400000000000a033400000000000e0334000000000002034
4000000000006034400000000000a034400000000000e0344000000000002035
4000000000006035400000000000a035400000000000e0354000000000002036
4000000000006036400000000000a036400000000000e0364000000000002037
4000000000006037400000000000a037400000000000e0374000000000002038
4000000000006038400000000000a038400000000000e0384000000000002039
4000000000006039400000000000a039400000000000e039400000000000203a
400000000000603a400000000000a03a400000000000e03a400000000000203b
400000000000603b400000000000a03b400000000000e03b400000000000203c
400000000000603c400000000000a03c400000000000e03c400000000000203d
400000000000603d400000000000a03d400000000000e03d400000000000203e
400000000000603e400000000000a03e400000000000e03e400000000000203f
400000000000603f400000000000a03f400000000000e03f40
`

// TestWeightedSnapshotPinned: a checkpoint blob in the pinned layout
// decodes into the set of its shape and encodes back to the same bytes,
// so checkpoint files written by earlier releases stay resumable.
func TestWeightedSnapshotPinned(t *testing.T) {
	blob, err := hex.DecodeString(strings.Join(strings.Fields(pinnedBlob), ""))
	if err != nil {
		t.Fatal(err)
	}
	set := NewWeightedSet(2, 1)
	if err := set.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if n := set.Dim(0).Y.Count; n != 259 {
		t.Fatalf("decoded %d trials, want 259", n)
	}
	if sk := set.Sketch(1); sk == nil || sk.N != 259 || len(sk.Levels) != 2 {
		t.Fatalf("decoded sketch %+v, want 259 observations over two levels", sk)
	}
	back, err := set.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, blob) {
		t.Fatal("the decoded set encodes to other bytes")
	}
}

func BenchmarkRunWeighted(b *testing.B) {
	job := withTrial(weightedJob{
		Trials: 10_000,
		Seed:   1,
		Dims:   8,
	}, func(src *rng.Source, trial int, _ any, vals []float64) float64 {
		weightedObs(src, vals)
		return 1
	})
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
	job := withTrial(weightedJob{
		Trials:     2048 * DefaultShardSize,
		Seed:       1,
		Dims:       7,
		SketchDims: []int{6},
	}, func(src *rng.Source, trial int, _ any, vals []float64) float64 {
		weightedObs(src, vals)
		return 1
	})
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

// shapeJob is a small weighted job with a sketch: 5 shards of shapeShard
// trials, enough for the merged sketch to span several levels, one of them
// empty.
func shapeJob(dims int) weightedJob {
	return withTrial(weightedJob{
		Trials:     5 * shapeShard,
		Seed:       5,
		Dims:       dims,
		SketchDims: []int{dims - 1},
	}, func(src *rng.Source, trial int, _ any, vals []float64) float64 {
		weightedObs(src, vals)
		return 0.5 + src.Float64()
	})
}

const shapeShard = 128

// snapshotWeighted returns the per-shard checkpoint of job's first
// shards shards (all of them when shards is the job's shard count), each
// shard's blob on its own.
func snapshotWeighted(t testing.TB, job weightedJob, shards int) *Checkpoint {
	t.Helper()
	return perShard(t, job.engine(), shapeShard, shards)
}

// sameSet compares two weighted sets bit for bit through their snapshot
// bytes, which are canonical: equal sets encode to equal bytes (pinned by
// TestWeightedSnapshotCanonical).
func sameSet(t testing.TB, got, want *WeightedSet) bool {
	t.Helper()
	g, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	w, err := want.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return string(g) == string(w)
}

// legacySet is the per-dimension layout a WeightedSet had before the
// dimensions shared their count, Σw and Σw²: the layout earlier versions
// gob-encoded and the fixed-layout blob still spells out.
type legacySet struct {
	Dims       []stats.Weighted
	SketchDims []int
	Sketches   []*stats.QuantileSketch
}

// legacy returns set in the per-dimension layout.
func legacy(set *WeightedSet) legacySet {
	l := legacySet{SketchDims: set.sketchDims, Sketches: set.sketches}
	for i := range set.dims {
		l.Dims = append(l.Dims, set.Dim(i))
	}
	return l
}

// gobWeightedBlob is a shard snapshot in the gob image earlier versions
// wrote: one fresh gob.Encoder per set, exactly as their MarshalBinary
// did.
func gobWeightedBlob(t testing.TB, set *WeightedSet) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(legacy(set)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// snapshotSet is a weighted set with the seven yearly dimensions of a
// default lifetime run, from a real run of trials trials; when sketched it
// also sketches the final year.
func snapshotSet(t testing.TB, sketched bool, trials int) (*WeightedSet, weightedJob) {
	t.Helper()
	job := withTrial(weightedJob{
		Trials: trials,
		Seed:   19,
		Dims:   7,
	}, func(src *rng.Source, _ int, _ any, vals []float64) float64 {
		weightedObs(src, vals)
		return 0.5 + src.Float64()
	})
	if sketched {
		job.SketchDims = []int{6}
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
	set, job := snapshotSet(t, true, 8*stats.DefaultSketchK)
	sk := set.sketches[0]
	if len(sk.Levels) < 3 {
		t.Fatalf("sketch spans %d levels, want a multi-level one", len(sk.Levels))
	}
	k := 0
	next := func() float64 { v := special[k%len(special)]; k++; return v }
	set.sumW, set.sumW2 = next(), next()
	for i := range set.dims {
		d := &set.dims[i]
		d.sumWX, d.mean, d.m2 = next(), next(), next()
	}
	for _, lvl := range sk.Levels {
		for i := range lvl {
			lvl[i] = next()
		}
	}
	blob, err := set.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back := job.newSet()
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if !sameSet(t, back, set) {
		t.Fatal("round trip changed the set")
	}
}

// TestWeightedSnapshotCanonical: equal sets encode to equal bytes — the
// same set reached at another parallelism, a sketch level empty or nil —
// and a set differing in one bit does not.
func TestWeightedSnapshotCanonical(t *testing.T) {
	job := shapeJob(3)
	a := runWeighted(job, Options{Parallelism: 1, ShardSize: shapeShard})
	b := runWeighted(job, Options{Parallelism: 4, ShardSize: shapeShard})
	blobA, _ := a.MarshalBinary()
	blobB, _ := b.MarshalBinary()
	if !bytes.Equal(blobA, blobB) {
		t.Fatal("equal sets encode to different bytes")
	}
	emptied := 0
	for _, sk := range a.sketches {
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
	if blob, _ := a.MarshalBinary(); !bytes.Equal(blob, blobA) {
		t.Fatal("nil and empty sketch levels encode differently")
	}
	a.sumW2 = math.Float64frombits(math.Float64bits(a.sumW2) ^ 1)
	if blob, _ := a.MarshalBinary(); bytes.Equal(blob, blobA) {
		t.Fatal("sets one bit apart encode to equal bytes")
	}
}

// TestWeightedSnapshotMarshalAllocs: the encoder sizes its buffer exactly
// and allocates nothing else.
func TestWeightedSnapshotMarshalAllocs(t *testing.T) {
	for _, sketched := range []bool{false, true} {
		set, _ := snapshotSet(t, sketched, DefaultShardSize)
		var blob []byte
		if n := testing.AllocsPerRun(100, func() { blob, _ = set.MarshalBinary() }); n > 1 {
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
func otherLayouts(t testing.TB, job weightedJob, real []byte) map[string][]byte {
	t.Helper()
	acc := job.newSet()
	if err := acc.UnmarshalBinary(real); err != nil {
		t.Fatal(err)
	}
	huge := bytes.Clone(real)
	huge[8] = 0x7f // the high byte of the dimension count
	return map[string][]byte{
		"gob image":      gobWeightedBlob(t, acc),
		"truncated":      real[:len(real)-1],
		"trailing byte":  append(bytes.Clone(real), 0),
		"huge dim count": huge,
	}
}

// TestWeightedSnapshotRejectsOtherLayouts: no blob but the fixed-layout
// image decodes — not a blob in another layout, and no prefix of a real
// one.
func TestWeightedSnapshotRejectsOtherLayouts(t *testing.T) {
	job := shapeJob(3)
	real := snapshotWeighted(t, job, 5).Shards[1]
	for name, blob := range otherLayouts(t, job, real) {
		if err := (job.newSet()).UnmarshalBinary(blob); err == nil {
			t.Errorf("%s: blob decoded", name)
		}
	}
	for n := range real {
		if err := (job.newSet()).UnmarshalBinary(real[:n]); err == nil {
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
			set, job := snapshotSet(b, sketched, DefaultShardSize)
			dst := job.newSet()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				blob, err := set.MarshalBinary()
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
	job := shapeJob(3)
	var executed atomic.Int64
	shard := job.Shard
	job.Shard = func(src *rng.Source, lo, hi int, sc any, set *WeightedSet) {
		executed.Add(int64(hi - lo))
		shard(src, lo, hi, sc, set)
	}
	want := runWeighted(job, Options{Parallelism: 1, ShardSize: shapeShard})
	// withShard returns the job's full snapshot with shard s's blob
	// replaced.
	withShard := func(s int, blob []byte) *Checkpoint {
		cp := snapshotWeighted(t, job, 5)
		cp.Shards[s] = blob
		return cp
	}

	// The full snapshot with every sketch's capacity rewritten: the image
	// of a job that sketches at another resolution.
	otherK := snapshotWeighted(t, job, 5)
	for sh, blob := range otherK.Shards {
		acc := job.newSet()
		if err := acc.UnmarshalBinary(blob); err != nil {
			t.Fatal(err)
		}
		acc.sketches[0].K /= 2
		b, err := acc.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		otherK.Shards[sh] = b
	}

	// A blob of the right shape whose shard-3 sketch claims one more
	// observation than its items weigh.
	real := snapshotWeighted(t, job, 5).Shards
	acc := job.newSet()
	if err := acc.UnmarshalBinary(real[3]); err != nil {
		t.Fatal(err)
	}
	acc.sketches[0].N++
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
		"partial 2-dim": {snapshotWeighted(t, shapeJob(2), 2), all},
		"full 2-dim":    {snapshotWeighted(t, shapeJob(2), 5), all},
		"full other K":  {otherK, all},
		"no sketch": {snapshotWeighted(t, withTrial(weightedJob{Trials: job.Trials, Seed: 5, Dims: 3},
			func(src *rng.Source, _ int, _ any, vals []float64) float64 { weightedObs(src, vals); return 1 }), 5), all},
	}
	for name, blob := range otherLayouts(t, job, real[1]) {
		cases[name] = resumeCase{withShard(1, blob), shapeShard}
	}
	for name, c := range cases {
		for _, p := range []int{1, 4} {
			executed.Store(0)
			got, err := runWeightedCtx(context.Background(), job, Options{
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
	job := shapeJob(3)
	full := runWeighted(job, Options{Parallelism: 1, ShardSize: shapeShard})
	snaps := snapshotWeighted(f, job, shards).Shards
	// prefixes[k] is the engine's snapshot blob of shards [0, k).
	prefixes := [][]byte{nil}
	_, err := runWeightedCtx(context.Background(), job, Options{Parallelism: 1, ShardSize: shapeShard,
		Checkpoint: &CheckpointConfig{Sink: func(c *Checkpoint) { prefixes = append(prefixes, c.Shards[0]) }}})
	if err != nil || len(prefixes) != shards+1 {
		f.Fatalf("snapshot run: err %v, %d prefixes", err, len(prefixes)-1)
	}
	f.Add(uint8(0x1f), int8(0), []byte{}, []byte{}, []byte{})
	f.Add(uint8(0x05), int8(0), []byte{1, 3}, []byte("not gob"), snaps[0][:len(snaps[0])/2])
	f.Add(uint8(0x0a), int8(0), []byte{0, 255, 9}, snaps[2], snaps[4])
	f.Add(uint8(0x00), int8(0), []byte{4}, snapshotWeighted(f, shapeJob(2), shards).Shards[4], []byte{})
	real := job.newSet()
	if err := real.UnmarshalBinary(snaps[3]); err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(0x17), int8(0), []byte{3}, gobWeightedBlob(f, real), []byte{})
	f.Add(uint8(0x19), int8(3), []byte{}, []byte{}, []byte{})
	f.Add(uint8(0x01), int8(5), []byte{}, []byte{}, []byte{})
	f.Add(uint8(0x1f), int8(-1), []byte{0}, prefixes[2], []byte{})
	f.Add(uint8(0x1f), int8(6), []byte{}, []byte{}, []byte{})
	f.Add(uint8(0x10), int8(4), []byte{0, 2}, prefixes[2], snaps[2])
	f.Add(uint8(0x00), int8(2), []byte{0}, prefixes[4], []byte{})
	f.Add(uint8(0x1f), int8(0), []byte{2}, disagreeingBlob(f, snaps, 2), []byte{})
	decode := func(blob []byte) *WeightedSet {
		acc := job.newSet()
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
			want = out
		}
		for _, p := range []int{1, 4} {
			got, err := runWeightedCtx(context.Background(), job, Options{
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
