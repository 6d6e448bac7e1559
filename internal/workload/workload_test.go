package workload

import (
	"math"
	"testing"
)

func TestMixesMatchTable73(t *testing.T) {
	mixes := Mixes()
	if len(mixes) != 12 {
		t.Fatalf("got %d mixes, want 12", len(mixes))
	}
	if mixes[0].Name != "Mix1" || mixes[11].Name != "Mix12" {
		t.Fatal("mix names wrong")
	}
	// Spot-check against Table 7.3.
	if mixes[9].Benchmarks[0].Name != "mcf2006" || mixes[9].Benchmarks[1].Name != "libquantum" {
		t.Fatalf("Mix10 = %v", mixes[9].Benchmarks)
	}
	if mixes[11].Benchmarks[0].Name != "lbm" {
		t.Fatalf("Mix12 starts with %s, want lbm", mixes[11].Benchmarks[0].Name)
	}
	for _, m := range mixes {
		for _, b := range m.Benchmarks {
			b.validate()
		}
	}
}

func TestByNamePanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ByName(unknown) did not panic")
		}
	}()
	ByName("doom3")
}

func TestStreamDeterminism(t *testing.T) {
	b := ByName("swim")
	s1, s2 := b.NewStream(7, 1000), b.NewStream(7, 1000)
	for i := 0; i < 1000; i++ {
		a1, a2 := s1.Next(), s2.Next()
		if a1 != a2 {
			t.Fatalf("access %d differs: %+v vs %+v", i, a1, a2)
		}
	}
}

func TestStreamStaysInFootprint(t *testing.T) {
	b := ByName("mcf2006")
	base := uint64(1 << 30)
	s := b.NewStream(1, base)
	for i := 0; i < 10000; i++ {
		a := s.Next()
		if a.Line < base || a.Line >= base+uint64(b.FootprintLines) {
			t.Fatalf("access %d at line %d escapes footprint [%d, %d)", i, a.Line, base, base+uint64(b.FootprintLines))
		}
		if a.Gap < 1 {
			t.Fatalf("gap %d < 1", a.Gap)
		}
	}
}

func TestStreamGapMatchesAPKI(t *testing.T) {
	// Mean gap should be ~1000/APKI instructions.
	b := ByName("omnetpp")
	s := b.NewStream(3, 0)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(s.Next().Gap)
	}
	mean := sum / n
	want := 1000 / b.APKI
	if math.Abs(mean-want)/want > 0.1 {
		t.Fatalf("mean gap %v, want ~%v", mean, want)
	}
}

func TestStreamWriteFraction(t *testing.T) {
	b := ByName("lbm")
	s := b.NewStream(4, 0)
	const n = 100000
	writes := 0
	for i := 0; i < n; i++ {
		if s.Next().Write {
			writes++
		}
	}
	got := float64(writes) / n
	if math.Abs(got-b.WriteFraction) > 0.02 {
		t.Fatalf("write fraction %v, want ~%v", got, b.WriteFraction)
	}
}

func TestStreamSpatialLocalityShowsUp(t *testing.T) {
	// Sequential-run fraction of a streaming benchmark must far exceed a
	// pointer-chaser's.
	seqFrac := func(name string) float64 {
		s := ByName(name).NewStream(5, 0)
		prev := s.Next().Line
		seq := 0
		const n = 50000
		for i := 0; i < n; i++ {
			a := s.Next()
			if a.Line == prev+1 {
				seq++
			}
			prev = a.Line
		}
		return float64(seq) / n
	}
	stream, chase := seqFrac("libquantum"), seqFrac("mcf2006")
	if stream < 0.8 {
		t.Fatalf("libquantum sequential fraction %v, want > 0.8", stream)
	}
	if chase > 0.3 {
		t.Fatalf("mcf2006 sequential fraction %v, want < 0.3", chase)
	}
	if stream <= chase {
		t.Fatal("locality ordering inverted")
	}
}

func TestBenchmarkValidatePanics(t *testing.T) {
	bad := Benchmark{Name: "bad", APKI: 0, SpatialLocality: 0.5, FootprintLines: 10, HotFraction: 0.1}
	defer func() {
		if recover() == nil {
			t.Fatal("invalid benchmark did not panic")
		}
	}()
	bad.NewStream(1, 0)
}

func TestAllMixBenchmarksDistinctRegionsPossible(t *testing.T) {
	// Footprints must be small enough that four of them fit in the
	// simulated physical memory (1M pages x 64 lines).
	const memLines = 1 << 26
	for _, m := range Mixes() {
		var total int
		for _, b := range m.Benchmarks {
			total += b.FootprintLines
		}
		if total > memLines {
			t.Fatalf("%s footprints (%d lines) exceed memory (%d lines)", m.Name, total, memLines)
		}
	}
}

// BenchmarkStreamNext times the generator alone, round-robin over the four
// streams of every Table 7.3 mix as the simulator's cores draw them. One op
// is one access; allocs/op must stay 0.
func BenchmarkStreamNext(b *testing.B) {
	var streams []*Stream
	for _, m := range Mixes() {
		for i, bm := range m.Benchmarks {
			streams = append(streams, bm.NewStream(int64(i)*7919+1, 0))
		}
	}
	var sink uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := streams[i%len(streams)].Next()
		sink += a.Line + uint64(a.Gap)
	}
	if sink == 0 {
		b.Fatal("no accesses drawn")
	}
}
