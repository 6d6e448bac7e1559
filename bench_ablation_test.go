package arcc_test

import (
	"math/rand"
	"testing"

	"arcc/internal/cache"
	"arcc/internal/core"
	"arcc/internal/memctrl"
	"arcc/internal/scrub"
)

// Ablation benchmarks for the design choices DESIGN.md calls out: the
// 4-step vs conventional scrubber, shared-recency vs independent LLC
// replacement, pair scheduling, and the page upgrade.
// Codec throughput per codeword geometry is timed by the DecodeBatchInto
// benchmarks in internal/ecc.

func BenchmarkAblationScrubFourStep(b *testing.B) {
	benchScrub(b, scrub.FourStep)
}

func BenchmarkAblationScrubConventional(b *testing.B) {
	benchScrub(b, scrub.Conventional)
}

func benchScrub(b *testing.B, algo scrub.Algorithm) {
	mem := core.New(core.Config{Pages: 16, RanksPerChannel: 2, BanksPerDevice: 8, RowsPerBank: 1})
	mem.RelaxAll()
	s := scrub.New(mem, algo)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.FullScrub()
	}
}

func BenchmarkAblationLLCSharedRecency(b *testing.B) {
	benchLLC(b, cache.SharedRecency)
}

func BenchmarkAblationLLCIndependentLRU(b *testing.B) {
	benchLLC(b, cache.IndependentLRU)
}

func benchLLC(b *testing.B, policy cache.Policy) {
	c := cache.New(1<<20, 16, policy)
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 1<<16)
	for i := range addrs {
		if i > 0 && rng.Float64() < 0.7 {
			addrs[i] = addrs[i-1] + 1
		} else {
			addrs[i] = uint64(rng.Intn(1 << 22))
		}
	}
	b.ResetTimer()
	var evs []cache.Eviction
	for i := 0; i < b.N; i++ {
		a := addrs[i%len(addrs)]
		if !c.Access(a, false) {
			evs = c.InsertInto(a, i%3 == 0, false, evs[:0])
		}
	}
}

func BenchmarkPageUpgrade(b *testing.B) {
	mem := core.New(core.Config{Pages: 4, RanksPerChannel: 1, BanksPerDevice: 2, RowsPerBank: 1})
	mem.RelaxAll()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mem.UpgradePage(0); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := mem.RelaxPage(0); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

func BenchmarkAblationPairingPromote(b *testing.B) {
	benchPairing(b, memctrl.PairPromote)
}

func BenchmarkAblationPairingFIFO(b *testing.B) {
	benchPairing(b, memctrl.PairFIFO)
}

func benchPairing(b *testing.B, p memctrl.Pairing) {
	cfg := memctrl.Config{
		Channels: 2, RanksPerChannel: 2, BanksPerRank: 8,
		Timing: memctrl.DDR2X8Timing(), DevicesPerAccess: 18, BurstBeats: 4,
		Pairing: p,
	}
	c := memctrl.New(cfg, nil)
	var now int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Mixed stream: some single-channel noise plus paired accesses.
		c.Access(now, i%2, i%16, false)
		done := c.AccessPaired(now, (i+5)%16, false)
		now = done - 10
		if now < 0 {
			now = 0
		}
	}
	b.ReportMetric(float64(c.LastCompletion())/float64(b.N), "cycles/op")
}
