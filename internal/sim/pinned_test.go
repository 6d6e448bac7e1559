package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"arcc/internal/cache"
	"arcc/internal/memctrl"
	"arcc/internal/workload"
)

// resultDigest is the sha256 of every Result field in declaration order,
// floats by their IEEE-754 bits, so any change to any statistic shows.
func resultDigest(r Result) string {
	h := sha256.New()
	if err := binary.Write(h, binary.LittleEndian, r); err != nil {
		panic(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRunResultsPinned pins full simulator results for the configurations
// the Fig 7.x goldens do not reach: DDR4/DDR5 timing (bank groups, tCCD,
// refresh), x4/x16 ARCC ranks, a shared LLC, strict-FIFO pairing,
// independent-LRU replacement, and upgraded fractions 0, 0.5 and 1. Any
// change to the LLC, core or controller that moves a single bit of any
// Result field fails here.
func TestRunResultsPinned(t *testing.T) {
	mixes := workload.Mixes()
	base := func(mix int, system MemorySystem, frac float64) Config {
		cfg := DefaultConfig(mixes[mix], system)
		cfg.InstructionsPerCore = 300_000
		cfg.UpgradedFraction = frac
		return cfg
	}
	withTech := func(cfg Config, gen string, width int) Config {
		tech := mustTech(t, gen, width)
		cfg.Tech = tech
		cfg.CPUCyclesPerDRAMCycle = tech.CPR()
		return cfg
	}
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"ddr2-arcc-f0", base(0, ARCC, 0), "c8ca6ea63010d5536ca71f7f1fbae918dfbb3ef4c2c035a0b8cf919d16b84429"},
		{"ddr2-arcc-f0.5", base(3, ARCC, 0.5), "c6eab3baf79d9c49bf1758ff40d65d5bd9ebb6ded50f1fdc4a9fc6c1b72f2eac"},
		{"ddr2-arcc-f1", base(7, ARCC, 1), "db25db03a90e664b119dcc59641a4dc5faeaca46e470e020b83d9cc51682e441"},
		{"ddr2-baseline", base(5, Baseline, 0), "5ea354ccc96428fea62179158c5124b38fceb7fb26b317e89ffce1ef7edeeb3d"},
		{"ddr4-arcc-x8-f0.5", withTech(base(1, ARCC, 0.5), "ddr4", 0), "18a8c01d5a29ff5bf8fbea68f89626510db5e3cf3f7ce9bbe77478ca668ea8a5"},
		{"ddr4-baseline", withTech(base(1, Baseline, 0), "ddr4", 0), "154fbd58c610b50669cf7739f7bcef176ca34836656176b41a88d55f887c9981"},
		{"ddr5-arcc-x4-f0.5", withTech(base(2, ARCC, 0.5), "ddr5", 4), "0d1422a0bcb641970e770e66fd56d6197d90bef16ad07a6f683dbf9b58a79328"},
		{"ddr5-arcc-x16-f1", withTech(base(4, ARCC, 1), "ddr5", 16), "dc2a2ee3a10e54324a9a56820d4e1aa5c13ce84defef930a799550b77e860865"},
		{"ddr5-baseline", withTech(base(2, Baseline, 0), "ddr5", 0), "77265e469c645b75f6f40ab01cebad333cdb7141500ad656bb8366baac9be8cb"},
		{"shared-llc-f0.5", func() Config {
			cfg := base(6, ARCC, 0.5)
			cfg.SharedLLC = true
			cfg.LLCBytes = 2 << 20
			return cfg
		}(), "18eb595fdbc8955eae34ca0af59724efa12ce3dce1f66d959a9ea7d7ea9ceb74"},
		{"pair-fifo-f1", func() Config {
			cfg := base(8, ARCC, 1)
			cfg.Pairing = memctrl.PairFIFO
			return cfg
		}(), "079e682f31d5a02bdec2d209ddd0c5340cbdcfbda59e70acfd1f7719315104a9"},
		{"independent-lru-f0.5", func() Config {
			cfg := base(9, ARCC, 0.5)
			cfg.LLCPolicy = cache.IndependentLRU
			return cfg
		}(), "b68632cbe6c65c7c7d20d94f6108236ff2a327858dbb1248ac0b5998cfc58b02"},
		{"small-llc-shared-recency-f0.5", func() Config {
			cfg := base(0, ARCC, 0.5)
			cfg.LLCBytes = 128 << 10
			return cfg
		}(), "ee27e8a19b8882dd7ab18ad89fcd2fee7e2ea57e64741cd7904376583ff941dc"},
		{"small-llc-ddr4-fifo-lru-f0.5", func() Config {
			cfg := withTech(base(3, ARCC, 0.5), "ddr4", 16)
			cfg.LLCBytes, cfg.LLCAssoc = 128<<10, 4
			cfg.Pairing = memctrl.PairFIFO
			cfg.LLCPolicy = cache.IndependentLRU
			return cfg
		}(), "7e531a445f75913c71c2e5f79ad64e57dd1a2264877303ba6227e4b02a875546"},
	}
	s := NewScratch()
	for _, tc := range cases {
		// Fresh and reused scratches must agree; the pinned digest holds
		// for both.
		got := resultDigest(RunWith(tc.cfg, s))
		if fresh := resultDigest(RunWith(tc.cfg, nil)); fresh != got {
			t.Errorf("%s: reused scratch digest %s differs from fresh %s", tc.name, got, fresh)
		}
		if got != tc.want {
			t.Errorf("%s: result digest %s, want %s", tc.name, got, tc.want)
		}
	}
}
