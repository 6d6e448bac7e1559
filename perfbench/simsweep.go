package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"arcc/internal/cache"
	"arcc/internal/cpu"
	"arcc/internal/experiments"
	"arcc/internal/mc"
	"arcc/internal/memctrl"
	"arcc/internal/power"
	"arcc/internal/sim"
	"arcc/internal/workload"
)

// simFaultSweep runs sim.RunWith on one reused sim.Scratch over the
// Fig 7.1–7.3 grid: the 12 Table 7.3 mixes × {Baseline, ARCC fault-free,
// ARCC at the four FaultScenarios upgraded fractions}. One op is one run;
// the work unit is simulated instructions.
var simFaultSweep = loadSpec{cycle: simGridSize, setup: setupSimSweep}

// simGridSize is 12 mixes × 6 memory configurations.
const simGridSize = 72

type simSweep struct {
	cfgs    []sim.Config
	scratch *sim.Scratch
	// first holds each config's result from the first pass; every later
	// pass must reproduce it bit for bit.
	first []sim.Result
	have  []bool
}

func simGrid(seed int64) []sim.Config {
	fracs := []float64{0}
	for _, fs := range experiments.FaultScenarios() {
		fracs = append(fracs, fs.Fraction)
	}
	var cfgs []sim.Config
	add := func(m workload.Mix, sys sim.MemorySystem, frac float64) {
		c := sim.DefaultConfig(m, sys)
		c.UpgradedFraction = frac
		c.Seed = mc.DeriveSeed(seed, uint64(len(cfgs)))
		cfgs = append(cfgs, c)
	}
	for _, m := range workload.Mixes() {
		add(m, sim.Baseline, 0)
		for _, f := range fracs {
			add(m, sim.ARCC, f)
		}
	}
	return cfgs
}

func setupSimSweep(seed int64) (instance, error) {
	s := &simSweep{cfgs: simGrid(seed), scratch: sim.NewScratch()}
	if len(s.cfgs) != simGridSize {
		return nil, fmt.Errorf("grid has %d configs, want %d", len(s.cfgs), simGridSize)
	}
	s.first = make([]sim.Result, len(s.cfgs))
	s.have = make([]bool, len(s.cfgs))
	// Warm-up: one run sizes the scratch's caches, cores and controllers.
	sim.RunWith(s.cfgs[0], s.scratch)
	return s, nil
}

func (s *simSweep) op(i int) (float64, error) {
	k := i % len(s.cfgs)
	res := sim.RunWith(s.cfgs[k], s.scratch)
	return s.check(k, res)
}

func (s *simSweep) check(k int, res sim.Result) (float64, error) {
	cfg := s.cfgs[k]
	if !s.have[k] {
		s.first[k], s.have[k] = res, true
	} else if res != s.first[k] {
		return 0, fail("incorrect", fmt.Errorf("config %d (%s/%v/%.4f) result changed between passes",
			k, cfg.Mix.Name, cfg.System, cfg.UpgradedFraction))
	}
	return float64(4 * cfg.InstructionsPerCore), nil
}

// verify digests every sim.Result field of the first pass.
func (s *simSweep) verify() (string, []string, map[string]any) {
	h := sha256.New()
	var problems []string
	for k, r := range s.first {
		if !s.have[k] {
			problems = append(problems, fmt.Sprintf("config %d never ran", k))
			continue
		}
		for _, f := range []float64{r.IPCSum, r.PerCoreIPC[0], r.PerCoreIPC[1], r.PerCoreIPC[2], r.PerCoreIPC[3],
			r.PowerMW, r.LLCHitRate, r.UpgradedAccessFraction} {
			_ = binary.Write(h, binary.LittleEndian, math.Float64bits(f))
		}
		_ = binary.Write(h, binary.LittleEndian, [3]int64{r.ElapsedDRAMCycles, r.MemReads, r.MemWrites})
	}
	return hex.EncodeToString(h.Sum(nil)), problems, map[string]any{"configs": len(s.cfgs)}
}

func (s *simSweep) close() {}

// The traced op runs RunWith (the part an untraced op times), then a
// replica of RunWith's event loop built from the layers' public types that
// records each config's access stream, LLC calls and memory-controller
// calls, and finally replays each recording through fresh layer instances
// with one span per layer.

type llcCall struct {
	line      uint64
	write, up bool
}

type memCall struct {
	now         int64
	ch, bank    int
	write, pair bool
}

type simRecording struct {
	next  [4][]workload.Access
	llc   [4][]llcCall
	mem   []memCall
	reads int64
	write int64
	ipc   float64
}

func (s *simSweep) tracedOp(i int, tr *tracer) (float64, error) {
	k := i % len(s.cfgs)
	cfg := s.cfgs[k]
	root := tr.begin("op", 0, i)
	defer tr.end(root)

	sp := tr.begin("sim.RunWith", root, i)
	res := sim.RunWith(cfg, s.scratch)
	runD := tr.end(sp)
	tr.opLatency(runD)
	tr.add("sim.RunWith", runD, 1)
	work, err := s.check(k, res)
	if err != nil {
		return work, err
	}

	sp = tr.begin("sim.record", root, i)
	rec := recordSim(cfg)
	tr.end(sp)
	if rec.reads != res.MemReads || rec.write != res.MemWrites || rec.ipc != res.IPCSum {
		return work, fail("incorrect", fmt.Errorf("config %d: recording replica diverged from sim.RunWith", k))
	}

	var nexts int
	for core := range rec.next {
		nexts += len(rec.next[core])
	}
	tr.count("sim.accesses", float64(nexts))

	streams := newStreams(cfg)
	sp = tr.begin("workload.Next", root, i)
	bad := replayStreams(streams, &rec)
	d := tr.end(sp)
	tr.add("workload.Next", d, float64(nexts))
	if bad {
		return work, fail("incorrect", fmt.Errorf("config %d: stream replay diverged", k))
	}
	replayD := d

	var llcs [4]*cache.LLC
	for core := range llcs {
		llcs[core] = cache.New(cfg.LLCBytes, cfg.LLCAssoc, cfg.LLCPolicy)
	}
	sp = tr.begin("cache.LLC", root, i)
	calls, hits := replayLLC(llcs, &rec)
	d = tr.end(sp)
	tr.add("cache.LLC", d, float64(calls))
	tr.count("cache.hits", float64(hits))
	replayD += d

	mem := ddr2Memory(cfg.System)
	sp = tr.begin("memctrl.Controller", root, i)
	replayMem(mem, rec.mem)
	d = tr.end(sp)
	tr.add("memctrl.Controller", d, float64(len(rec.mem)))
	replayD += d

	tr.add("sim.residue", runD-replayD, 1)
	return work, nil
}

func (s *simSweep) layerMetrics(tr *tracer) map[string]metric {
	var reads, writes, upFrac float64
	for _, r := range s.first {
		reads += float64(r.MemReads)
		writes += float64(r.MemWrites)
		upFrac += r.UpgradedAccessFraction
	}
	hitRatio := 0.0
	if n := tr.counts["cache.LLC"]; n > 0 {
		hitRatio = tr.counts["cache.hits"] / n
	}
	return map[string]metric{
		"sim.run_ms":                       {tr.msPer("sim.RunWith"), "ms"},
		"sim.host_ns_per_access":           {float64(tr.sums["sim.RunWith"].Nanoseconds()) / tr.counts["sim.accesses"], "ns"},
		"workload.next_ns":                 {tr.nsPer("workload.Next"), "ns"},
		"cache.access_ns":                  {tr.nsPer("cache.LLC"), "ns"},
		"cache.hit_ratio":                  {hitRatio, "ratio"},
		"memctrl.access_ns":                {tr.nsPer("memctrl.Controller"), "ns"},
		"memctrl.reads":                    {reads, "count"},
		"memctrl.writes":                   {writes, "count"},
		"memctrl.upgraded_access_fraction": {upFrac / float64(len(s.first)), "ratio"},
		"sim.loop_residue_ms_approx":       {tr.msPer("sim.residue"), "ms"},
	}
}

// ddr2Memory builds the calibrated DDR2-667 memory system sim.RunWith
// uses for cfg.System (Table 7.1, with auto-refresh).
func ddr2Memory(system sim.MemorySystem) *memctrl.Controller {
	if system == sim.Baseline {
		t := memctrl.DDR2X4Timing()
		t.TREFI, t.TRFC = 2600, 35
		return memctrl.New(memctrl.Config{Channels: 2, RanksPerChannel: 1, BanksPerRank: 8,
			Timing: t, DevicesPerAccess: 36, BurstBeats: 4}, power.NewMeter(power.Micron512MbX4()))
	}
	t := memctrl.DDR2X8Timing()
	t.TREFI, t.TRFC = 2600, 35
	return memctrl.New(memctrl.Config{Channels: 2, RanksPerChannel: 2, BanksPerRank: 8,
		Timing: t, DevicesPerAccess: 18, BurstBeats: 4}, power.NewMeter(power.Micron512MbX8()))
}

// upgradedPage is the simulator's page-mode oracle.
func upgradedPage(page uint64, seed int64, threshold uint64) bool {
	h := (page ^ uint64(seed)<<40) * 0x9E3779B97F4A7C15
	h ^= h >> 33
	h *= 0xC2B2AE3D27D4EB4F
	h ^= h >> 29
	return h&0xFFFFFFFF < threshold
}

// streamBases returns each core's region base, as sim.RunWith lays them out.
func streamBases(cfg sim.Config) [4]uint64 {
	var bases [4]uint64
	base := uint64(0)
	for i, b := range cfg.Mix.Benchmarks {
		bases[i] = base
		base += uint64(b.FootprintLines)
		base = (base + 63) &^ 63
	}
	return bases
}

type recordingIssuer struct {
	mem  *memctrl.Controller
	rec  *simRecording
	cpr  int64
	rb   uint64
	line uint64
	up   bool
}

func (m *recordingIssuer) IssueAt(nowCPU int64) int64 {
	return m.book(nowCPU, m.line, m.up, false) * m.cpr
}

func (m *recordingIssuer) book(nowCPU int64, line uint64, up, write bool) int64 {
	now := nowCPU / m.cpr
	ch, bank := int(line&1), int((line>>1)%m.rb)
	m.rec.mem = append(m.rec.mem, memCall{now: now, ch: ch, bank: bank, write: write, pair: up})
	if up {
		return m.mem.AccessPaired(now, bank, write)
	}
	return m.mem.Access(now, ch, bank, write)
}

// recordSim re-runs cfg's event loop (default DDR2 configs with private
// LLCs, as the grid uses) and records every layer call.
func recordSim(cfg sim.Config) simRecording {
	var rec simRecording
	mem := ddr2Memory(cfg.System)
	threshold := uint64(cfg.UpgradedFraction * float64(1<<32))
	oracleOn := cfg.System == sim.ARCC && threshold != 0
	streams := newStreams(cfg)
	var cores [4]*cpu.Core
	var llcs [4]*cache.LLC
	var done [4]bool
	for i := range cores {
		cores[i] = cpu.New(cpu.DefaultConfig())
		llcs[i] = cache.New(cfg.LLCBytes, cfg.LLCAssoc, cfg.LLCPolicy)
	}
	rb := uint64(mem.Config().RanksPerChannel * mem.Config().BanksPerRank)
	iss := &recordingIssuer{mem: mem, rec: &rec, cpr: cfg.CPUCyclesPerDRAMCycle, rb: rb}
	var evs []cache.Eviction
	var handled []uint64
	for {
		next := -1
		for i := range cores {
			if !done[i] && (next < 0 || cores[i].Now() < cores[next].Now()) {
				next = i
			}
		}
		if next < 0 {
			break
		}
		core, llc := cores[next], llcs[next]
		a := streams[next].Next()
		rec.next[next] = append(rec.next[next], a)
		core.AdvanceCompute(a.Gap)
		if core.Instructions() >= cfg.InstructionsPerCore {
			core.Drain()
			done[next] = true
			continue
		}
		up := oracleOn && upgradedPage(a.Line>>6, cfg.Seed, threshold)
		rec.llc[next] = append(rec.llc[next], llcCall{line: a.Line, write: a.Write, up: up})
		if llc.Access(a.Line, a.Write) {
			core.NoteHit()
			continue
		}
		evs = llc.InsertInto(a.Line, up, a.Write, evs[:0])
		handled = handled[:0]
		for _, e := range evs {
			if !e.Dirty || contains(handled, e.Addr) {
				continue
			}
			iss.book(core.Now(), e.Addr, e.Upgraded, true)
			handled = append(handled, e.Addr)
			if e.Upgraded {
				handled = append(handled, e.PairedWith)
			}
		}
		iss.line, iss.up = a.Line, up
		if a.Write {
			iss.IssueAt(core.Now())
			continue
		}
		core.IssueMissTo(iss)
	}
	for i := range cores {
		rec.ipc += float64(cfg.InstructionsPerCore) / float64(cores[i].Now())
	}
	rec.reads, rec.write = mem.Stats()
	return rec
}

func contains(xs []uint64, x uint64) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// newStreams builds each core's workload stream as sim.RunWith seeds it.
func newStreams(cfg sim.Config) [4]*workload.Stream {
	var streams [4]*workload.Stream
	bases := streamBases(cfg)
	for i, b := range cfg.Mix.Benchmarks {
		streams[i] = b.NewStream(cfg.Seed+int64(i)*7919, bases[i])
	}
	return streams
}

// replayStreams draws every recorded access again from fresh streams and
// reports whether any differs from the recording.
func replayStreams(streams [4]*workload.Stream, rec *simRecording) (bad bool) {
	for i, st := range streams {
		for _, want := range rec.next[i] {
			if st.Next() != want {
				bad = true
			}
		}
	}
	return bad
}

// replayLLC drives fresh LLCs with the recorded calls: Access, and
// InsertInto on each miss.
func replayLLC(llcs [4]*cache.LLC, rec *simRecording) (calls, hits int) {
	var evs []cache.Eviction
	for i, llc := range llcs {
		for _, a := range rec.llc[i] {
			if llc.Access(a.line, a.write) {
				hits++
				continue
			}
			evs = llc.InsertInto(a.line, a.up, a.write, evs[:0])
		}
		calls += len(rec.llc[i])
	}
	return calls, hits
}

// replayMem books the recorded calls on a fresh controller and meter.
func replayMem(mem *memctrl.Controller, calls []memCall) {
	for _, m := range calls {
		if m.pair {
			mem.AccessPaired(m.now, m.bank, m.write)
		} else {
			mem.Access(m.now, m.ch, m.bank, m.write)
		}
	}
}
