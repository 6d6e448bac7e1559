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

// recordEveryShard returns options that snapshot after every shard into
// *last.
func recordEveryShard(last **mc.Checkpoint) mc.Options {
	return mc.Options{Parallelism: 1, Checkpoint: &mc.CheckpointConfig{
		EveryShards: 1,
		Sink:        func(c *mc.Checkpoint) { *last = c },
	}}
}

// FuzzLifetimeCheckpointResume resumes FaultyPageFraction or
// LifetimeOverhead (metric picks) from a fuzzed blob at a fuzzed shard
// index, at parallelism 1 and 4.
func FuzzLifetimeCheckpointResume(f *testing.F) {
	shape := faultmodel.ARCCChannelShape()
	ov := WorstCaseOverheads(shape, 2)
	metrics := []func(context.Context, Spec) (*SeriesStats, error){
		func(ctx context.Context, s Spec) (*SeriesStats, error) { return FaultyPageFraction(ctx, s, shape) },
		func(ctx context.Context, s Spec) (*SeriesStats, error) { return LifetimeOverhead(ctx, s, ov, 1) },
	}
	// shards[m][s] are metric m's real per-year sums of shard s.
	shards := make([][][]float64, len(metrics))
	var realBlobs [][]byte
	for m, metric := range metrics {
		var cp *mc.Checkpoint
		got, err := metric(context.Background(), ckSpec(recordEveryShard(&cp)))
		if err != nil {
			f.Fatal(err)
		}
		for s := 0; s < ckChannels/ckShard; s++ {
			acc := &yearSums{sums: make([]float64, ckYears)}
			if err := acc.UnmarshalBinary(cp.Shards[s]); err != nil {
				f.Fatal(err)
			}
			shards[m] = append(shards[m], acc.sums)
			realBlobs = append(realBlobs, cp.Shards[s])
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
	f.Add(uint8(0), int8(0), realBlobs[0])
	f.Add(uint8(1), int8(1), realBlobs[3])
	f.Add(uint8(0), int8(1), realBlobs[2]) // another metric's shard
	f.Add(uint8(1), int8(0), nan)
	f.Add(uint8(0), int8(1), realBlobs[1][:8*ckYears-1])
	f.Add(uint8(1), int8(2), realBlobs[0])
	f.Add(uint8(0), int8(-1), []byte{})
	f.Fuzz(func(t *testing.T, metric uint8, shard int8, blob []byte) {
		m, s := int(metric)%len(metrics), int(shard)
		parts := append([][]float64(nil), shards[m]...)
		if s >= 0 && s < len(parts) && len(blob) == 8*ckYears {
			d := make([]float64, ckYears)
			for i := range d {
				d[i] = math.Float64frombits(binary.LittleEndian.Uint64(blob[8*i:]))
			}
			parts[s] = d
		}
		cp := &mc.Checkpoint{Trials: ckChannels, Seed: 7, ShardSize: ckShard, Shards: map[int][]byte{s: blob}}
		for _, p := range []int{1, 4} {
			got, err := metrics[m](context.Background(), ckSpec(mc.Options{Parallelism: p, Checkpoint: &mc.CheckpointConfig{Resume: cp}}))
			if err != nil {
				t.Fatalf("parallelism %d: %v", p, err)
			}
			for i, v := range got.Mean {
				if want := (parts[0][i] + parts[1][i]) / ckChannels; math.Float64bits(v) != math.Float64bits(want) {
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
	var cp *mc.Checkpoint
	total, err := simulate(recordEveryShard(&cp))
	if err != nil {
		f.Fatal(err)
	}
	var counts []int
	for s := 0; s < channels/size; s++ {
		acc := &eventCount{}
		if err := acc.UnmarshalBinary(cp.Shards[s]); err != nil {
			f.Fatal(err)
		}
		counts = append(counts, acc.events)
	}
	if counts[0]+counts[1] != total || total == 0 {
		f.Fatalf("shard counts %v for a total of %d events", counts, total)
	}
	f.Add(int8(0), cp.Shards[0])
	f.Add(int8(1), cp.Shards[0])
	f.Add(int8(1), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(int8(0), []byte{1, 2, 3})
	f.Add(int8(2), cp.Shards[1])
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
