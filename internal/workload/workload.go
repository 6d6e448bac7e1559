// Package workload generates the memory access streams that drive the
// performance and power experiments.
//
// The paper runs 12 multiprogrammed mixes of SPEC CPU2000/2006 benchmarks
// (Table 7.3) on M5. SPEC binaries and simulator checkpoints are not
// reproducible here, so each benchmark is replaced by a synthetic stream
// generator parameterised by the memory-level behaviour that the
// experiments actually depend on:
//
//   - APKI: LLC accesses per kilo-instruction (memory intensity),
//   - SpatialLocality: probability that an access continues a sequential
//     run (this is what makes upgraded 128 B lines act as useful prefetch
//     for some workloads and waste bandwidth for others, Fig 7.2/7.3),
//   - WriteFraction: stores among LLC accesses,
//   - FootprintLines: working-set size in 64 B lines,
//   - HotFraction/HotWeight: a hot subset that captures reuse (LLC hits).
//
// Parameter values are calibrated to the published memory characteristics
// of the named benchmarks (streaming codes like lbm/libquantum/swim are
// intense and sequential; pointer-chasers like mcf/omnetpp are intense and
// random; mesa/calculix/sjeng/h264ref are cache-friendly).
package workload

import (
	"fmt"

	"arcc/internal/rng"
)

// Access is one LLC-level memory access.
type Access struct {
	// Line is the 64 B line address (line index, not byte address).
	Line uint64
	// Write reports a store.
	Write bool
	// Gap is the number of instructions executed since the previous
	// access (the compute the core performs in between).
	Gap int
}

// Benchmark is a synthetic stand-in for one SPEC benchmark.
type Benchmark struct {
	Name            string
	APKI            float64 // LLC accesses per 1000 instructions
	SpatialLocality float64 // probability of continuing a sequential run
	WriteFraction   float64
	FootprintLines  int
	HotFraction     float64 // fraction of footprint that is hot
	HotWeight       float64 // probability a random jump lands in the hot set
}

func (b Benchmark) validate() {
	if b.APKI <= 0 || b.FootprintLines <= 0 ||
		b.SpatialLocality < 0 || b.SpatialLocality >= 1 ||
		b.WriteFraction < 0 || b.WriteFraction > 1 ||
		b.HotFraction <= 0 || b.HotFraction > 1 ||
		b.HotWeight < 0 || b.HotWeight > 1 {
		panic(fmt.Sprintf("workload: invalid benchmark %+v", b))
	}
}

// Stream produces the access sequence of one benchmark instance.
type Stream struct {
	b    Benchmark
	rng  rng.Source
	base uint64 // first line of this instance's address range
	cur  uint64 // current line within [0, FootprintLines)
	hot  int64  // hot-set size in lines, at least 1
	gapM float64
}

// NewStream starts a stream at a deterministic position. base is the first
// line address of the region this benchmark instance owns; instances in a
// mix get disjoint regions.
func (b Benchmark) NewStream(seed int64, base uint64) *Stream {
	s := new(Stream)
	s.Reset(b, seed, base)
	return s
}

// Reset re-initialises s exactly as b.NewStream(seed, base) would, reusing
// the stream's RNG state so no heap allocations occur. The access sequence a
// reset stream produces is identical to a freshly-constructed stream's, so
// the two are interchangeable (sim.Scratch reuses streams across runs).
func (s *Stream) Reset(b Benchmark, seed int64, base uint64) {
	b.validate()
	s.b = b
	s.rng.Seed(seed)
	s.base = base
	s.cur = 0
	s.hot = max(int64(float64(b.FootprintLines)*b.HotFraction), 1)
	s.gapM = 1000 / b.APKI
}

// Next produces the next access.
func (s *Stream) Next() Access {
	b := &s.b
	if s.rng.Float64() < b.SpatialLocality {
		s.cur = (s.cur + 1) % uint64(b.FootprintLines)
	} else if s.rng.Float64() < b.HotWeight {
		s.cur = uint64(s.rng.Int63n(s.hot))
	} else {
		s.cur = uint64(s.rng.Int63n(int64(b.FootprintLines)))
	}
	gap := int(s.rng.ExpFloat64() * s.gapM)
	if gap < 1 {
		gap = 1
	}
	return Access{
		Line:  s.base + s.cur,
		Write: s.rng.Float64() < b.WriteFraction,
		Gap:   gap,
	}
}
