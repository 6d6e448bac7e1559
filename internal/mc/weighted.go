package mc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"arcc/internal/stats"
)

// addKernel, when set (by weighted_amd64.go on CPUs with AVX-512F), is
// Add's per-dimension loop: for each i, the Welford step of y = w·vals[i]
// into sumWX[i], mean[i] and m2[i] with n the new trial count. All four
// slices have the set's length, and the first three capacity for whole
// groups of eight, which it loads and stores whole. Tests clear it to
// run the Go loop alone.
var addKernel func(sumWX, mean, m2, vals []float64, w, n float64)

// Weighted Monte Carlo: trials that carry an importance-sampling
// likelihood ratio. A weighted job is an ordinary Job whose NewAcc returns
// NewWeightedSet: its Shard fills a vector of per-dimension observations
// per trial (e.g. one faulty-page fraction per lifetime year) and adds it,
// with the trial's weight against the target distribution, to the shard's
// set, which folds every dimension into the estimator a stats.Weighted
// would hold, so the result carries the unbiased weighted mean, a
// confidence interval, and the effective sample size — in O(Dims) memory
// regardless of the trial count. Plain (unaccelerated) sampling is the
// weight-1 special case, and the weighted sum is a plain running sum, so a
// weights-all-one job reproduces a legacy sum-and-divide accumulator bit
// for bit: same additions, same shard-order merge.
//
// The trial count, Σw and Σw² are the same for every dimension, so a
// WeightedSet keeps them once; per dimension it keeps only Σw·x and the
// Welford mean and M2 of y = w·x, each quantity in one slice over the
// dimensions. Its Add and Merge perform, for every dimension, the float
// operations stats.Weighted's would, in the same order, so Dim(i) equals
// the stats.Weighted fed the same trials bit for bit
// (TestWeightedSetMatchesStatsWeighted). On CPUs with AVX-512F, Add runs
// eight dimensions per instruction (addAVX512): each lane does the same
// IEEE-754 operations in the same order, with no fused multiply-add.

// WeightedSet is the accumulator of a weighted job: one weighted
// estimator per dimension plus the requested quantile sketches, merged
// across shards in shard-index order. Build each shard's with
// NewWeightedSet and read the result through Dim and Sketch.
type WeightedSet struct {
	// n is the number of trials folded in, and sumW and sumW2 are their
	// Σw and Σw²: the Y.Count, SumW and SumW2 of every dimension.
	n           int64
	sumW, sumW2 float64
	// sumWX, mean and m2 hold each dimension's Σw·x and the Welford mean
	// and M2 of its y = w·x, one slice per quantity.
	sumWX, mean, m2 []float64
	// sketchDims and sketches mirror NewWeightedSet's sketchDims:
	// sketches[j] summarises dimension sketchDims[j].
	sketchDims []int
	sketches   []*stats.QuantileSketch
}

// NewWeightedSet returns one shard's empty set of dims dimensions. The
// raw observations of each of sketchDims (indexes < dims, no duplicates)
// are also folded into a quantile sketch of stats.DefaultSketchK items
// per level. Sketches record the unweighted values, so their quantiles
// are meaningful only when every trial weight is 1: accelerated
// (weighted) jobs should sketch nothing. It panics on a non-positive
// dims and on a sketch dimension out of range or repeated.
func NewWeightedSet(dims int, sketchDims ...int) *WeightedSet {
	if dims <= 0 {
		panic(fmt.Sprintf("mc: non-positive dimension count %d", dims))
	}
	s := newWeightedSet(dims)
	if len(sketchDims) == 0 {
		return s
	}
	for j, d := range sketchDims {
		if d < 0 || d >= dims {
			panic(fmt.Sprintf("mc: sketch dimension %d outside [0, %d)", d, dims))
		}
		if slices.Contains(sketchDims[:j], d) {
			panic(fmt.Sprintf("mc: duplicate sketch dimension %d", d))
		}
	}
	s.sketchDims = slices.Clone(sketchDims)
	s.sketches = make([]*stats.QuantileSketch, len(sketchDims))
	for j := range s.sketches {
		s.sketches[j] = stats.NewQuantileSketch(0)
	}
	return s
}

// newWeightedSet returns an empty set of dims dimensions, with no
// sketch, its three per-dimension slices cut from one array and each
// padded to a multiple of eight elements for addKernel. A masked store
// of a partial group would keep the next Add's loads from forwarding
// from it, which made Add slower than the Go loop; the padding, which
// nothing reads, stays 0.
func newWeightedSet(dims int) *WeightedSet {
	pad := (dims + 7) &^ 7
	all := make([]float64, 3*pad)
	return &WeightedSet{sumWX: all[:dims:pad], mean: all[pad : pad+dims : 2*pad], m2: all[2*pad : 2*pad+dims : 3*pad]}
}

// Dim returns the estimator of dimension i.
func (s *WeightedSet) Dim(i int) stats.Weighted {
	return stats.Weighted{
		SumWX: s.sumWX[i],
		SumW:  s.sumW,
		SumW2: s.sumW2,
		Y:     stats.Welford{Count: s.n, Mean: s.mean[i], M2: s.m2[i]},
	}
}

// Sketch returns the quantile sketch of dimension dim, or nil when the
// job did not request one for it.
func (s *WeightedSet) Sketch(dim int) *stats.QuantileSketch {
	for j, d := range s.sketchDims {
		if d == dim {
			return s.sketches[j]
		}
	}
	return nil
}

// Merge folds another set, the accumulator of a later shard, into the
// receiver: stats.Weighted.Merge for every dimension. Like every
// streaming merge the result depends on the merge order; the engine
// always merges in shard-index order.
func (s *WeightedSet) Merge(other Accumulator) {
	o := other.(*WeightedSet)
	if len(o.sumWX) != len(s.sumWX) || len(o.sketches) != len(s.sketches) {
		panic("mc: merging weighted sets of different shape")
	}
	s.sumW += o.sumW
	s.sumW2 += o.sumW2
	for i, v := range o.sumWX {
		s.sumWX[i] += v
	}
	// Welford.Merge, with the counts converted once.
	switch {
	case o.n == 0:
	case s.n == 0:
		copy(s.mean, o.mean)
		copy(s.m2, o.m2)
	default:
		n1, n2 := float64(s.n), float64(o.n)
		n := n1 + n2
		for i, om := range o.mean {
			dm := om - s.mean[i]
			s.mean[i] += dm * n2 / n
			s.m2[i] += o.m2[i] + dm*dm*n1*n2/n
		}
	}
	s.n += o.n
	for j := range s.sketches {
		s.sketches[j].Merge(o.sketches[j])
	}
}

// Add folds one trial into the set: stats.Weighted.Add(vals[i], w) for
// every dimension i, with the shared sums and the count's conversion
// done once. vals holds at least one value per dimension. It panics when
// w is negative, NaN or infinite: the weight must be a likelihood ratio.
func (s *WeightedSet) Add(vals []float64, w float64) {
	if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		panic(fmt.Sprintf("mc: trial weight %v is not a likelihood ratio", w))
	}
	s.n++
	n := float64(s.n)
	s.sumW += w
	s.sumW2 += w * w
	vals = vals[:len(s.sumWX)]
	if addKernel != nil {
		addKernel(s.sumWX, s.mean, s.m2, vals, w, n)
	} else {
		for i, v := range vals {
			y := w * v
			s.sumWX[i] += y
			dy := y - s.mean[i]
			s.mean[i] += dy / n
			s.m2[i] += dy * (y - s.mean[i])
		}
	}
	for j, d := range s.sketchDims {
		s.sketches[j].Add(vals[d])
	}
}

// weightedFormat leads every weighted-set blob. No gob stream starts
// with it (gob opens with a message length, whose first byte is below
// 0x80 or at least 0xF8), so a shard snapshot written in the gob image
// earlier versions used fails on its first byte and re-runs.
const weightedFormat = 0x81

// MarshalBinary makes weighted jobs checkpointable (see
// CheckpointConfig). The image is a fixed little-endian layout of
// 64-bit words after the format byte:
//
//	len(Dims), then per dimension SumWX SumW SumW2 Y.Count Y.Mean Y.M2
//	len(SketchDims), then the sketched dimensions
//	per sketch: K, N, len(Levels), then per level its length and items
//
// Floats are stored as raw IEEE-754 bits, so the round trip is bit-exact
// and equal sets encode to equal bytes. The buffer is sized exactly, so
// encoding allocates once.
func (s *WeightedSet) MarshalBinary() ([]byte, error) {
	n := 1 + 8 + 48*len(s.sumWX) + 8 + 8*len(s.sketchDims)
	for _, sk := range s.sketches {
		n += 24
		for _, lvl := range sk.Levels {
			n += 8 + 8*len(lvl)
		}
	}
	le := binary.LittleEndian
	b := append(make([]byte, 0, n), weightedFormat)
	b = le.AppendUint64(b, uint64(len(s.sumWX)))
	for i, v := range s.sumWX {
		b = le.AppendUint64(b, math.Float64bits(v))
		b = le.AppendUint64(b, math.Float64bits(s.sumW))
		b = le.AppendUint64(b, math.Float64bits(s.sumW2))
		b = le.AppendUint64(b, uint64(s.n))
		b = le.AppendUint64(b, math.Float64bits(s.mean[i]))
		b = le.AppendUint64(b, math.Float64bits(s.m2[i]))
	}
	b = le.AppendUint64(b, uint64(len(s.sketchDims)))
	for _, d := range s.sketchDims {
		b = le.AppendUint64(b, uint64(d))
	}
	for _, sk := range s.sketches {
		b = le.AppendUint64(b, uint64(sk.K))
		b = le.AppendUint64(b, uint64(sk.N))
		b = le.AppendUint64(b, uint64(len(sk.Levels)))
		for _, lvl := range sk.Levels {
			b = le.AppendUint64(b, uint64(len(lvl)))
			for _, v := range lvl {
				b = le.AppendUint64(b, math.Float64bits(v))
			}
		}
	}
	return b, nil
}

// UnmarshalBinary restores a shard's estimator set from MarshalBinary
// bytes. Every count is checked against the bytes left before anything
// is allocated for it, and trailing bytes are an error. The dimensions
// must agree bit for bit on the trial count, Σw and Σw², which a set
// holds once. The receiver must be fresh from NewWeightedSet: its empty
// set is the shape the snapshot has to match (see checkShape), so a blob
// from a job of another shape fails here and the engine re-runs its
// shard.
func (s *WeightedSet) UnmarshalBinary(b []byte) error {
	if len(b) == 0 || b[0] != weightedFormat {
		return errors.New("mc: weighted snapshot is not in the fixed layout")
	}
	r := wordReader{b: b[1:]}
	set := newWeightedSet(r.count(48))
	disagree := false
	for i := range set.sumWX {
		set.sumWX[i] = r.float()
		sumW, sumW2, n := r.word(), r.word(), r.word()
		set.mean[i], set.m2[i] = r.float(), r.float()
		if i == 0 {
			set.sumW, set.sumW2, set.n = math.Float64frombits(sumW), math.Float64frombits(sumW2), int64(n)
		} else if sumW != math.Float64bits(set.sumW) || sumW2 != math.Float64bits(set.sumW2) || n != uint64(set.n) {
			disagree = true
		}
	}
	// Each sketch takes a dimension word plus at least its K, N and level
	// count.
	if n := r.count(8 + 24); n > 0 {
		set.sketchDims = make([]int, n)
		for j := range set.sketchDims {
			set.sketchDims[j] = int(r.word())
		}
		set.sketches = make([]*stats.QuantileSketch, n)
		for j := range set.sketches {
			sk := &stats.QuantileSketch{K: int(r.word()), N: int64(r.word())}
			if nl := r.count(8); nl > 0 {
				sk.Levels = make([][]float64, nl)
			}
			for i := range sk.Levels {
				lvl := make([]float64, r.count(8))
				for k := range lvl {
					lvl[k] = r.float()
				}
				sk.Levels[i] = lvl
			}
			set.sketches[j] = sk
		}
	}
	if r.short {
		return errors.New("mc: weighted snapshot is truncated")
	}
	if len(r.b) > 0 {
		return fmt.Errorf("mc: weighted snapshot has %d trailing bytes", len(r.b))
	}
	if disagree {
		return errors.New("mc: weighted snapshot dimensions disagree on the trial count, Σw or Σw²")
	}
	if err := s.checkShape(set); err != nil {
		return err
	}
	*s = *set
	return nil
}

// wordReader reads little-endian 64-bit words off a snapshot. Once a read
// runs past the end, or a count claims more elements than the remaining
// bytes can hold, short is set and every later read yields zero, so the
// decode loops finish without allocating for the bogus count.
type wordReader struct {
	b     []byte
	short bool
}

func (r *wordReader) word() uint64 {
	if len(r.b) < 8 {
		r.b, r.short = nil, true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *wordReader) float() float64 { return math.Float64frombits(r.word()) }

// count reads an element count whose elements take at least size bytes
// each.
func (r *wordReader) count(size int) int {
	n := r.word()
	if n > uint64(len(r.b)/size) {
		r.b, r.short = nil, true
		return 0
	}
	return int(n)
}

// checkShape reports why o — a decoded snapshot — cannot stand in for the
// shard set s: a different dimension count, different sketched
// dimensions, a missing sketch or one of another capacity (Merge would
// panic on any of these, or the run would return a set of the wrong
// shape), or a sketch whose items do not weigh its observation count
// (its quantiles would be meaningless).
func (s *WeightedSet) checkShape(o *WeightedSet) error {
	if len(o.sumWX) != len(s.sumWX) {
		return fmt.Errorf("mc: weighted snapshot has %d dimensions, want %d", len(o.sumWX), len(s.sumWX))
	}
	if !slices.Equal(o.sketchDims, s.sketchDims) || len(o.sketches) != len(s.sketches) {
		return fmt.Errorf("mc: weighted snapshot sketches dimensions %v, want %v", o.sketchDims, s.sketchDims)
	}
	for j, sk := range o.sketches {
		if sk == nil || sk.K != s.sketches[j].K {
			return fmt.Errorf("mc: weighted snapshot sketch %d is missing or has another capacity", j)
		}
		// Level i items weigh 2^i each; together they must weigh N.
		rem := sk.N
		for i, lvl := range sk.Levels {
			if rem < 0 || (len(lvl) > 0 && (i >= 63 || int64(len(lvl)) > rem>>i)) {
				rem = -1
				break
			}
			rem -= int64(len(lvl)) << i
		}
		if rem != 0 {
			return fmt.Errorf("mc: weighted snapshot sketch %d items do not weigh its %d observations", j, sk.N)
		}
	}
	return nil
}
