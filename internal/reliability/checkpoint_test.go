package reliability

import (
	"context"
	"encoding/binary"
	"math"
	"testing"

	"arcc/internal/faultmodel"
	"arcc/internal/mc"
)

// The plain lifetime Monte Carlos checkpoint each shard as yearSums (raw
// per-year float words) and the SDC Monte Carlo as an eventCount (one
// count word). A fixed-length blob carries no tag, so any blob of the
// right length is a valid snapshot: resuming from it must give the
// result with that shard's contribution replaced by the blob's. Any other
// blob must be rejected, its shard re-run, and the result must equal an
// uninterrupted run. No blob may make a resume panic or fail.

const (
	ckYears    = 3
	ckChannels = 40
	ckShard    = 20 // two shards
)

// ckSpec is a plain (no CI) lifetime Monte Carlo at inflated rates whose
// shard snapshots are yearSums.
func ckSpec(opts mc.Options) Spec {
	opts.ShardSize = ckShard
	return Spec{
		Seed:           7,
		Opts:           opts,
		Rates:          faultmodel.FieldStudyRates().Scale(500),
		Ranks:          2,
		DevicesPerRank: 18,
		Years:          ckYears,
		Channels:       ckChannels,
	}
}

// shardBlobs returns the snapshot blob of each of the two shards of the
// Monte Carlo that run starts with the options it is given. A snapshot
// after every shard at parallelism 1 first holds shard 0 alone; shard 1
// alone is the final fold of a resume that restores shard 0 as zero,
// the blob zero.
func shardBlobs(t testing.TB, run func(mc.Options) error, zero []byte) [2][]byte {
	t.Helper()
	var first, last *mc.Checkpoint
	record := func(c *mc.Checkpoint) {
		if first == nil {
			first = c
		}
		last = c
	}
	if err := run(mc.Options{Parallelism: 1, Checkpoint: &mc.CheckpointConfig{Sink: record}}); err != nil {
		t.Fatal(err)
	}
	if first.Folded != 0 || len(first.Shards) != 1 || last.Folded != 2 {
		t.Fatalf("snapshots folded %d (%d blobs) then %d, want 0 (1 blob) then 2", first.Folded, len(first.Shards), last.Folded)
	}
	resume := &mc.Checkpoint{Trials: first.Trials, Seed: first.Seed, ShardSize: first.ShardSize, Shards: map[int][]byte{0: zero}}
	if err := run(mc.Options{Parallelism: 1, Checkpoint: &mc.CheckpointConfig{Resume: resume, Sink: record}}); err != nil {
		t.Fatal(err)
	}
	return [2][]byte{first.Shards[0], last.Shards[0]}
}

// FuzzLifetimeCheckpointResume resumes FaultyPageFraction or
// LifetimeOverhead (metric picks) from a fuzzed blob at a fuzzed shard
// index under a fuzzed Folded value, at parallelism 1 and 4. Folded 0 or
// 1 is the per-shard layout; 2 makes Shards[0] the fold of both shards;
// any other value makes the resume ignore the checkpoint.
func FuzzLifetimeCheckpointResume(f *testing.F) {
	shape := faultmodel.ARCCChannelShape()
	ov := WorstCaseOverheads(shape, 2)
	metrics := []func(context.Context, Spec) (*SeriesStats, error){
		func(ctx context.Context, s Spec) (*SeriesStats, error) { return FaultyPageFraction(ctx, s, shape) },
		func(ctx context.Context, s Spec) (*SeriesStats, error) { return LifetimeOverhead(ctx, s, ov, 1) },
	}
	sums := func(blob []byte) []float64 {
		d := make([]float64, ckYears)
		for i := range d {
			d[i] = math.Float64frombits(binary.LittleEndian.Uint64(blob[8*i:]))
		}
		return d
	}
	// shards[m][s] are metric m's real per-year sums of shard s.
	shards := make([][][]float64, len(metrics))
	var realBlobs [][]byte
	for m, metric := range metrics {
		run := func(opts mc.Options) error {
			_, err := metric(context.Background(), ckSpec(opts))
			return err
		}
		for _, blob := range shardBlobs(f, run, make([]byte, 8*ckYears)) {
			shards[m] = append(shards[m], sums(blob))
			realBlobs = append(realBlobs, blob)
		}
		got, err := metric(context.Background(), ckSpec(mc.Options{Parallelism: 1}))
		if err != nil {
			f.Fatal(err)
		}
		if got.Mean[ckYears-1] == 0 {
			f.Fatalf("metric %d: no faults at these rates", m)
		}
		// The oracle below folds shard sums the way the engine does.
		for i, v := range got.Mean {
			if want := (shards[m][0][i] + shards[m][1][i]) / ckChannels; math.Float64bits(v) != math.Float64bits(want) {
				f.Fatalf("metric %d year %d: mean %v, shard fold %v", m, i, v, want)
			}
		}
	}
	nan := make([]byte, 8*ckYears)
	for i := range ckYears {
		binary.LittleEndian.PutUint64(nan[8*i:], 0x7ff8_0000_0000_0001)
	}
	f.Add(uint8(0), int8(0), int8(0), realBlobs[0])
	f.Add(uint8(1), int8(1), int8(0), realBlobs[3])
	f.Add(uint8(0), int8(1), int8(0), realBlobs[2]) // another metric's shard
	f.Add(uint8(1), int8(0), int8(0), nan)
	f.Add(uint8(0), int8(1), int8(0), realBlobs[1][:8*ckYears-1])
	f.Add(uint8(1), int8(2), int8(0), realBlobs[0])
	f.Add(uint8(0), int8(-1), int8(0), []byte{})
	f.Add(uint8(0), int8(0), int8(2), realBlobs[1])
	f.Add(uint8(1), int8(1), int8(2), realBlobs[2])
	f.Add(uint8(0), int8(0), int8(3), nan)
	f.Add(uint8(1), int8(0), int8(-1), realBlobs[0])
	f.Add(uint8(0), int8(0), int8(1), nan)
	f.Fuzz(func(t *testing.T, metric uint8, shard, folded int8, blob []byte) {
		m, s := int(metric)%len(metrics), int(shard)
		parts := append([][]float64(nil), shards[m]...)
		fold := func(i int) float64 { return parts[0][i] + parts[1][i] }
		switch valid := len(blob) == 8*ckYears; {
		case folded == 2 && s == 0 && valid:
			d := sums(blob) // the fold of both shards
			fold = func(i int) float64 { return d[i] }
		case folded >= 0 && folded <= 1 && s >= 0 && s < len(parts) && valid:
			parts[s] = sums(blob)
		}
		cp := &mc.Checkpoint{Trials: ckChannels, Seed: 7, ShardSize: ckShard, Folded: int(folded), Shards: map[int][]byte{s: blob}}
		for _, p := range []int{1, 4} {
			got, err := metrics[m](context.Background(), ckSpec(mc.Options{Parallelism: p, Checkpoint: &mc.CheckpointConfig{Resume: cp}}))
			if err != nil {
				t.Fatalf("parallelism %d: %v", p, err)
			}
			for i, v := range got.Mean {
				if want := fold(i) / ckChannels; math.Float64bits(v) != math.Float64bits(want) {
					t.Fatalf("parallelism %d year %d: resumed mean %v, want %v", p, i, v, want)
				}
			}
		}
	})
}

// FuzzSDCCheckpointResume resumes the SDC Monte Carlo from a fuzzed blob
// at a fuzzed shard index, at parallelism 1 and 4.
func FuzzSDCCheckpointResume(f *testing.F) {
	const channels, size, seed = 32, 16, 13
	p := DefaultParams()
	p.Rates = p.Rates.Scale(3000)
	p.LifeYears = 1
	simulate := func(opts mc.Options) (int, error) {
		opts.ShardSize = size
		return SimulateARCCDED(context.Background(), seed, opts, p, channels)
	}
	blobs := shardBlobs(f, func(opts mc.Options) error {
		_, err := simulate(opts)
		return err
	}, make([]byte, 8))
	total, err := simulate(mc.Options{Parallelism: 1})
	if err != nil {
		f.Fatal(err)
	}
	var counts []int
	for _, blob := range blobs {
		acc := &eventCount{}
		if err := acc.UnmarshalBinary(blob); err != nil {
			f.Fatal(err)
		}
		counts = append(counts, acc.events)
	}
	if counts[0]+counts[1] != total || total == 0 {
		f.Fatalf("shard counts %v for a total of %d events", counts, total)
	}
	f.Add(int8(0), blobs[0])
	f.Add(int8(1), blobs[0])
	f.Add(int8(1), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(int8(0), []byte{1, 2, 3})
	f.Add(int8(2), blobs[1])
	f.Fuzz(func(t *testing.T, shard int8, blob []byte) {
		s := int(shard)
		parts := append([]int(nil), counts...)
		if s >= 0 && s < len(parts) && len(blob) == 8 {
			parts[s] = int(binary.LittleEndian.Uint64(blob))
		}
		resume := &mc.Checkpoint{Trials: channels, Seed: seed, ShardSize: size, Shards: map[int][]byte{s: blob}}
		for _, par := range []int{1, 4} {
			got, err := simulate(mc.Options{Parallelism: par, Checkpoint: &mc.CheckpointConfig{Resume: resume}})
			if err != nil {
				t.Fatalf("parallelism %d: %v", par, err)
			}
			if want := parts[0] + parts[1]; got != want {
				t.Fatalf("parallelism %d: resumed count %d, want %d", par, got, want)
			}
		}
	})
}
