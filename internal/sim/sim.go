// Package sim composes the full-system performance/power simulation used by
// the Chapter 7 experiments: four trace-driven cores (package cpu) with
// private LLCs (package cache) sharing a memory system (package memctrl)
// whose per-page ECC mode follows ARCC's page table, with DRAM power
// accounting (package power).
//
// Both memory systems are built from one technology table, the only place
// a (generation, device width) row is stated: the timing preset,
// CPU-cycles-per-DRAM-cycle ratio and bank and burst shape of DDR2 (the
// paper's calibrated Table 7.1 configuration), DDR4 and DDR5, and per
// device width the devices one access touches, the power profile (whose
// clock period is the generation's) and whether ARCC ranks may use it.
// ParseTech is the one place a generation and width are checked.
//
// The functional data path (real codewords in simulated DRAM, package core)
// is exercised by its own tests and the reliability experiments; this
// simulator tracks addresses, timing, and energy only, which keeps the
// Chapter 7 sweeps fast.
package sim

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"

	"arcc/internal/cache"
	"arcc/internal/cpu"
	"arcc/internal/memctrl"
	"arcc/internal/power"
	"arcc/internal/workload"
)

// MemorySystem selects the evaluated configuration (Table 7.1).
type MemorySystem int

const (
	// Baseline is commercial chipkill: two channels, one 36-device x4
	// rank each; every access touches 36 devices.
	Baseline MemorySystem = iota
	// ARCC is the adaptive configuration: two channels, two 18-device x8
	// ranks each; relaxed accesses touch 18 devices, upgraded accesses
	// pair both channels (36 devices).
	ARCC
)

// String implements fmt.Stringer.
func (m MemorySystem) String() string {
	if m == Baseline {
		return "baseline"
	}
	return "arcc"
}

// generation is one row of the technology table.
type generation struct {
	name   string
	timing memctrl.Timing
	// cpr is the CPU-cycles-per-DRAM-cycle ratio under the paper's 3 GHz
	// core, rounded to the nearest integer as Table 7.1 does.
	cpr                       int64
	bankGroups, banksPerGroup int
	// burstClocks is the bus clocks one line burst occupies (burst length
	// / 2, data moving on both edges).
	burstClocks int
	// widths holds each device width the generation builds: x4 for the
	// baseline, plus every ARCC width.
	widths map[int]widthRow
}

// widthRow is one device width of a generation.
type widthRow struct {
	// devices is the device count one relaxed-mode ECC access touches:
	// the generation's access bus divided by the width, rounded up.
	devices int
	// power is the device profile; its TCK is the DRAM clock period.
	power power.DeviceParams
	// arcc says whether ARCC ranks may use the width.
	arcc bool
}

// generations is the technology table, the one place a (generation,
// device width) row is stated. Index 0 is DDR2, so the zero Tech is the
// paper's configuration.
//   - DDR2-667 is the calibrated Table 7.1 configuration: 8 flat banks,
//     BL4, auto-refresh, one timing preset for x4 and x8, x8 ARCC ranks
//     only. Accesses use the paper's ganged 144-bit channel.
//   - DDR4-2400 has 4 bank groups x 4 banks and BL8; accesses use the
//     72-bit ECC DIMM bus (one x16 lane half-used).
//   - DDR5-4800 has 8 bank groups x 4 banks and BL16; accesses use one
//     40-bit ECC subchannel.
var generations = [...]generation{
	{
		name: "ddr2", timing: withRefresh(memctrl.DDR2X8Timing()), cpr: 9,
		bankGroups: 1, banksPerGroup: 8, burstClocks: 2,
		widths: map[int]widthRow{
			4: {36, power.Micron512MbX4(), false},
			8: {18, power.Micron512MbX8(), true},
		},
	},
	{
		name: "ddr4", timing: memctrl.DDR4Timing(), cpr: 3,
		bankGroups: 4, banksPerGroup: 4, burstClocks: 4,
		widths: map[int]widthRow{
			4:  {18, power.DDR4x4Device(), true},
			8:  {9, power.DDR4x8Device(), true},
			16: {5, power.DDR4x16Device(), true},
		},
	},
	{
		name: "ddr5", timing: memctrl.DDR5Timing(), cpr: 1,
		bankGroups: 8, banksPerGroup: 4, burstClocks: 8,
		widths: map[int]widthRow{
			4:  {10, power.DDR5x4Device(), true},
			8:  {5, power.DDR5x8Device(), true},
			16: {3, power.DDR5x16Device(), true},
		},
	},
}

// withRefresh adds DDR2 auto-refresh timing (tREFI 7.8 us, tRFC 105 ns at
// 333 MHz) to a timing set.
func withRefresh(t memctrl.Timing) memctrl.Timing {
	t.TREFI = 2600
	t.TRFC = 35
	return t
}

// Tech is a resolved memory technology: a generation from the table and
// the device width of the ARCC ranks built from it. The Baseline system
// always uses x4 devices — commercial chipkill needs the narrow symbol.
// The zero value is the paper's DDR2-667 x8 evaluation (Table 7.1), and
// ParseTech is the only other way to get a Tech.
type Tech struct {
	// gen indexes generations.
	gen int
	// width is the ARCC device width, with x8 stored as 0 so that the zero
	// Tech is DDR2 x8 and equal technologies compare equal (the Scratch
	// caches its controllers per Tech).
	width int
}

// ParseTech resolves a generation name ("ddr2", "ddr4" or "ddr5",
// case-insensitive; "" means ddr2) and an ARCC device width in bits (0
// means 8, the paper's choice) into a Tech, or says why the table has no
// such row.
func ParseTech(name string, width int) (Tech, error) {
	key := cmp.Or(strings.ToLower(strings.TrimSpace(name)), "ddr2")
	gen := slices.IndexFunc(generations[:], func(g generation) bool { return g.name == key })
	if gen < 0 {
		return Tech{}, fmt.Errorf("sim: unknown generation %q (want ddr2, ddr4, or ddr5)", name)
	}
	width = cmp.Or(width, 8)
	if !generations[gen].widths[width].arcc {
		return Tech{}, fmt.Errorf("sim: %s has no ARCC ranks of %d-bit devices", key, width)
	}
	if width == 8 {
		width = 0
	}
	return Tech{gen: gen, width: width}, nil
}

// arccWidth returns the ARCC device width in bits.
func (t Tech) arccWidth() int { return cmp.Or(t.width, 8) }

// CPR returns the generation's CPU-cycles-per-DRAM-cycle ratio: 9 for
// DDR2-667, 3 for DDR4-2400 and 1 for DDR5-4800.
func (t Tech) CPR() int64 { return generations[t.gen].cpr }

// Config describes one simulation run.
type Config struct {
	Mix    workload.Mix
	System MemorySystem
	// Tech selects the memory technology; the zero value is the paper's
	// DDR2-667 x8 configuration. CPUCyclesPerDRAMCycle should be its CPR.
	Tech Tech
	// UpgradedFraction is the fraction of pages in upgraded mode (0 for a
	// fault-free memory; Table 7.4 fractions for the Fig 7.2/7.3 fault
	// scenarios). Ignored for the Baseline system.
	UpgradedFraction float64
	// InstructionsPerCore ends the run once every core commits this many.
	InstructionsPerCore int64
	// Seed drives all randomness (workload streams, page-mode placement).
	Seed int64
	// LLCBytes / LLCAssoc shape each core's private LLC (Table 7.2: 1 MB,
	// 16-way).
	LLCBytes, LLCAssoc int
	// LLCPolicy selects the replacement policy for upgraded pairs
	// (§4.2.3). The zero value is the paper's shared-recency design.
	LLCPolicy cache.Policy
	// Pairing selects the §4.2.4 sub-line pairing design. The zero value
	// is pointer promotion.
	Pairing memctrl.Pairing
	// CPUCyclesPerDRAMCycle converts between clock domains (3 GHz core vs
	// 333 MHz DDR2 clock = 9).
	CPUCyclesPerDRAMCycle int64
	// Sources, when non-nil, overrides the synthetic generators with
	// caller-provided access sources (e.g. recorded traces loaded into a
	// workload.TraceSource, cloned per core). Entries left nil fall back
	// to the mix's generator for that core.
	Sources [4]workload.Source
	// SharedLLC replaces the four private LLCs with one LLC of LLCBytes
	// shared by all cores — the contention half of a multi-tenant study.
	// LLCBytes is the total shared capacity, so a scenario comparing
	// private-1MB against shared-4MB sets it explicitly.
	SharedLLC bool
}

// DefaultConfig returns the Table 7.1/7.2 configuration for a mix.
func DefaultConfig(mix workload.Mix, system MemorySystem) Config {
	return Config{
		Mix:                   mix,
		System:                system,
		InstructionsPerCore:   1_000_000,
		Seed:                  1,
		LLCBytes:              1 << 20,
		LLCAssoc:              16,
		CPUCyclesPerDRAMCycle: 9,
	}
}

// Result summarises one run.
type Result struct {
	// IPCSum is the sum of per-core IPCs — the paper's performance metric.
	IPCSum     float64
	PerCoreIPC [4]float64
	// PowerMW is the average DRAM power over the run.
	PowerMW float64
	// ElapsedDRAMCycles is the run length in DRAM cycles (slowest core).
	ElapsedDRAMCycles int64
	// MemReads/MemWrites are line transfers performed by the controller.
	MemReads, MemWrites int64
	// LLCHitRate aggregates all cores' LLCs.
	LLCHitRate float64
	// UpgradedAccessFraction is the fraction of demand fetches served in
	// upgraded (paired) mode.
	UpgradedAccessFraction float64
}

// pageOf maps a line address to its 4 KB page.
func pageOf(line uint64) uint64 { return line >> 6 }

// Scratch holds the reusable working state of one simulation run: the four
// cores and their LLC backing arrays, the memory controller and power meter
// of the last system simulated, the reusable workload streams, and the
// (tiny) per-miss eviction and writeback buffers. A Scratch carries capacity
// only — RunWith fully resets every component before use — so for a given
// Config the result is bit-identical whether the scratch is fresh or reused.
// A Scratch serves one run at a time and is not safe for concurrent use;
// mc-driven fan-outs thread one per shard (mc.MapScratchCtx), and the plain Run
// entry point borrows one from an internal pool.
type Scratch struct {
	cores   [4]*cpu.Core
	streams [4]*workload.Stream

	llcs               [4]*cache.LLC
	llcBytes, llcAssoc int
	llcPolicy          cache.Policy
	llcShared          bool

	// One controller+meter per memory system, so a scratch alternating
	// between Baseline and ARCC runs (the Fig 7.1 comparison) reuses both.
	// pairing/tech record what each pair was built for.
	mem     [2]*memctrl.Controller
	meter   [2]*power.Meter
	pairing [2]memctrl.Pairing
	tech    [2]Tech

	evs     []cache.Eviction
	handled []uint64
	fetch   missIssuer
}

// NewScratch returns an empty scratch; RunWith sizes its components to the
// first config it runs (and re-sizes them if the config's geometry changes).
func NewScratch() *Scratch { return &Scratch{} }

// memorySystem returns the scratch's controller+meter for cfg, reusing the
// (reset) pair built for the same memory system on an earlier run.
func (s *Scratch) memorySystem(cfg Config) (*memctrl.Controller, *power.Meter) {
	if cfg.System != Baseline && cfg.System != ARCC {
		panic(fmt.Sprintf("sim: unknown system %d", cfg.System))
	}
	i := int(cfg.System)
	if s.mem[i] != nil && s.pairing[i] == cfg.Pairing && s.tech[i] == cfg.Tech {
		s.mem[i].Reset()
		s.meter[i].Reset()
		return s.mem[i], s.meter[i]
	}
	// Commercial chipkill is one rank of x4 devices per channel; ARCC is
	// two ranks of the Tech's width.
	width, ranks := 4, 1
	if cfg.System == ARCC {
		width, ranks = cfg.Tech.arccWidth(), 2
	}
	g := &generations[cfg.Tech.gen]
	r := g.widths[width]
	s.meter[i] = power.NewMeter(r.power)
	s.mem[i] = memctrl.New(memctrl.Config{
		Channels: 2, RanksPerChannel: ranks,
		BanksPerRank: g.bankGroups * g.banksPerGroup, BankGroups: g.bankGroups,
		Timing: g.timing, DevicesPerAccess: r.devices,
		BurstBeats: g.burstClocks * 2, Pairing: cfg.Pairing,
	}, s.meter[i])
	s.pairing[i] = cfg.Pairing
	s.tech[i] = cfg.Tech
	return s.mem[i], s.meter[i]
}

// resetLLCs returns the four per-core LLCs for cfg, reusing (and resetting)
// the previous run's backing arrays when the cache geometry is unchanged
// and rebuilding all four together when it is not. Under SharedLLC all four
// entries alias one LLC of LLCBytes total capacity.
func (s *Scratch) resetLLCs(cfg Config) *[4]*cache.LLC {
	if s.llcs[0] != nil && s.llcBytes == cfg.LLCBytes && s.llcAssoc == cfg.LLCAssoc &&
		s.llcPolicy == cfg.LLCPolicy && s.llcShared == cfg.SharedLLC {
		if cfg.SharedLLC {
			s.llcs[0].Reset()
		} else {
			for _, llc := range s.llcs {
				llc.Reset()
			}
		}
		return &s.llcs
	}
	if cfg.SharedLLC {
		shared := cache.New(cfg.LLCBytes, cfg.LLCAssoc, cfg.LLCPolicy)
		for i := range s.llcs {
			s.llcs[i] = shared
		}
	} else {
		for i := range s.llcs {
			s.llcs[i] = cache.New(cfg.LLCBytes, cfg.LLCAssoc, cfg.LLCPolicy)
		}
	}
	s.llcBytes, s.llcAssoc, s.llcPolicy, s.llcShared = cfg.LLCBytes, cfg.LLCAssoc, cfg.LLCPolicy, cfg.SharedLLC
	return &s.llcs
}

// mapLine computes the (channel, globalBank) of a 64 B line.
func mapLine(line, ranksBanks uint64) (ch, bank int) {
	ch = int(line & 1)
	bank = int((line >> 1) % ranksBanks)
	return ch, bank
}

// upgradedPage is the page-mode oracle: a page is upgraded if a seeded hash
// of its number falls under the target threshold. Deterministic, O(1), and
// spreads upgraded pages uniformly — which matches the Fig 7.2 scenarios
// where a fault's pages are interleaved through every workload's footprint.
func upgradedPage(page uint64, seed int64, threshold uint64) bool {
	h := (page ^ uint64(seed)<<40) * 0x9E3779B97F4A7C15
	h ^= h >> 33
	h *= 0xC2B2AE3D27D4EB4F
	h ^= h >> 29
	return h&0xFFFFFFFF < threshold
}

// missIssuer books the memory traffic for one demand read miss and reports
// its completion time in CPU cycles. It implements cpu.Issuer on a struct
// that lives in the Scratch and is re-pointed at each miss, replacing the
// per-miss closure the read path used to allocate.
type missIssuer struct {
	mem        *memctrl.Controller
	cpr        int64
	ranksBanks uint64
	line       uint64
	isUp       bool
}

// IssueAt implements cpu.Issuer.
func (m *missIssuer) IssueAt(nowCPU int64) int64 {
	nowDRAM := nowCPU / m.cpr
	ch, bank := mapLine(m.line, m.ranksBanks)
	var doneDRAM int64
	if m.isUp {
		doneDRAM = m.mem.AccessPaired(nowDRAM, bank, false)
	} else {
		doneDRAM = m.mem.Access(nowDRAM, ch, bank, false)
	}
	return doneDRAM * m.cpr
}

// writeback books eviction traffic (non-blocking for the core). handled is
// the caller's scratch for addresses already written this batch — an
// upgraded pair evicted as two entries must write back once — and is
// returned re-sliced; eviction batches are at most a few entries, so a
// linear scan replaces the map the old path allocated per miss.
func writeback(mem *memctrl.Controller, cpr int64, ranksBanks uint64, nowCPU int64, evs []cache.Eviction, handled []uint64) []uint64 {
	nowDRAM := nowCPU / cpr
	handled = handled[:0]
	for _, e := range evs {
		if !e.Dirty || slices.Contains(handled, e.Addr) {
			continue
		}
		if e.Upgraded {
			_, bank := mapLine(e.Addr, ranksBanks)
			mem.AccessPaired(nowDRAM, bank, true)
			handled = append(handled, e.Addr, e.PairedWith)
		} else {
			ch, bank := mapLine(e.Addr, ranksBanks)
			mem.Access(nowDRAM, ch, bank, true)
			handled = append(handled, e.Addr)
		}
	}
	return handled
}

// scratchPool backs the plain Run entry point, so callers that do not
// manage a Scratch themselves (tests, the experiment fan-outs) still reuse
// run state across consecutive runs on the same worker.
var scratchPool = sync.Pool{New: func() any { return NewScratch() }}

// Run executes one simulation. It is RunWith with a pooled Scratch.
func Run(cfg Config) Result {
	s := scratchPool.Get().(*Scratch)
	res := RunWith(cfg, s)
	scratchPool.Put(s)
	return res
}

// RunWith executes one simulation using s's reusable working state (nil
// behaves like a fresh scratch). The result is identical to Run's for the
// same config; reuse only removes the per-run setup allocations and the
// steady-state loop's per-miss allocations.
func RunWith(cfg Config, s *Scratch) Result {
	if s == nil {
		s = NewScratch()
	}
	if cfg.InstructionsPerCore <= 0 || cfg.LLCBytes <= 0 || cfg.LLCAssoc <= 0 || cfg.CPUCyclesPerDRAMCycle <= 0 {
		panic(fmt.Sprintf("sim: invalid config %+v", cfg))
	}
	if !(cfg.UpgradedFraction >= 0 && cfg.UpgradedFraction <= 1) {
		panic(fmt.Sprintf("sim: upgraded fraction %v out of range", cfg.UpgradedFraction))
	}

	mem, meter := s.memorySystem(cfg)

	threshold := uint64(cfg.UpgradedFraction * float64(1<<32))
	oracleOn := cfg.System == ARCC && threshold != 0

	type coreState struct {
		core   *cpu.Core
		llc    *cache.LLC
		stream workload.Source
		done   bool
	}
	var states [4]coreState
	llcs := s.resetLLCs(cfg)
	base := uint64(0)
	for i := range states {
		b := cfg.Mix.Benchmarks[i]
		var src workload.Source
		if cfg.Sources[i] != nil {
			src = cfg.Sources[i]
		} else if s.streams[i] != nil {
			s.streams[i].Reset(b, cfg.Seed+int64(i)*7919, base)
			src = s.streams[i]
		} else {
			s.streams[i] = b.NewStream(cfg.Seed+int64(i)*7919, base)
			src = s.streams[i]
		}
		if s.cores[i] == nil {
			s.cores[i] = cpu.New(cpu.DefaultConfig())
		} else {
			s.cores[i].Reset()
		}
		states[i] = coreState{core: s.cores[i], llc: llcs[i], stream: src}
		base += uint64(b.FootprintLines)
		// Page-align region starts so pairs never straddle benchmarks.
		base = (base + 63) &^ 63
	}

	mcfg := mem.Config()
	ranksBanks := uint64(mcfg.RanksPerChannel * mcfg.BanksPerRank)
	cpr := cfg.CPUCyclesPerDRAMCycle
	s.fetch = missIssuer{mem: mem, cpr: cpr, ranksBanks: ranksBanks}

	var demandFetches, upgradedFetches int64

	// Event loop: always advance the core that is furthest behind, so the
	// shared memory controller sees requests in (approximate) time order.
	for {
		next := -1
		for i := range states {
			if states[i].done {
				continue
			}
			if next < 0 || states[i].core.Now() < states[next].core.Now() {
				next = i
			}
		}
		if next < 0 {
			break
		}
		st := &states[next]
		a := st.stream.Next()
		st.core.AdvanceCompute(a.Gap)
		if st.core.Instructions() >= cfg.InstructionsPerCore {
			st.core.Drain()
			st.done = true
			continue
		}
		if st.llc.Access(a.Line, a.Write) {
			st.core.NoteHit()
			continue
		}
		isUp := oracleOn && upgradedPage(pageOf(a.Line), cfg.Seed, threshold)
		s.evs = st.llc.InsertInto(a.Line, isUp, a.Write, s.evs[:0])
		s.handled = writeback(mem, cpr, ranksBanks, st.core.Now(), s.evs, s.handled)
		demandFetches++
		if isUp {
			upgradedFetches++
		}
		s.fetch.line, s.fetch.isUp = a.Line, isUp
		if a.Write {
			// Write-allocate: the fill occupies memory but the store
			// itself retires through the store buffer without stalling.
			s.fetch.IssueAt(st.core.Now())
			continue
		}
		st.core.IssueMissTo(&s.fetch)
	}

	// Aggregate.
	var res Result
	var slowest int64
	var hits, misses int64
	for i := range states {
		st := &states[i]
		res.PerCoreIPC[i] = float64(cfg.InstructionsPerCore) / float64(st.core.Now())
		res.IPCSum += res.PerCoreIPC[i]
		if st.core.Now() > slowest {
			slowest = st.core.Now()
		}
		if cfg.SharedLLC && i > 0 {
			continue // all four states alias one LLC; count it once
		}
		h, m, _, _ := st.llc.Stats()
		hits += h
		misses += m
	}
	res.ElapsedDRAMCycles = slowest / cpr
	if last := mem.LastCompletion(); last > res.ElapsedDRAMCycles {
		res.ElapsedDRAMCycles = last
	}
	res.MemReads, res.MemWrites = mem.Stats()
	if hits+misses > 0 {
		res.LLCHitRate = float64(hits) / float64(hits+misses)
	}
	if demandFetches > 0 {
		res.UpgradedAccessFraction = float64(upgradedFetches) / float64(demandFetches)
	}

	// The clock period is the generation's device TCK, which every width of
	// a row shares, and the device count follows the system's shape (3.0 ns
	// and 72 devices for the paper's DDR2).
	elapsedNS := float64(res.ElapsedDRAMCycles) * generations[cfg.Tech.gen].widths[4].power.TCK
	active := mem.BankUtilization(res.ElapsedDRAMCycles)
	res.PowerMW = meter.AveragePowerMW(elapsedNS, mcfg.Channels*mcfg.RanksPerChannel*mcfg.DevicesPerAccess, active, 0.9)
	return res
}
