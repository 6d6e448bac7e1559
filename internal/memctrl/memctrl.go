// Package memctrl models memory-controller timing for the performance
// experiments: closed-page policy (every access is an activate + column
// access + precharge), per-bank occupancy, shared data-bus occupancy per
// channel, and the lockstep pairing of two channels for upgraded (128 B)
// and baseline commercial-chipkill accesses.
//
// Time is measured in DRAM clock cycles (DDR2-667: 333 MHz, 3 ns/cycle).
// The model books resources greedily in request order, which matches an
// FR-FCFS scheduler under a closed-page policy closely enough for the
// comparative experiments: what the figures need is (a) bank/rank-level
// parallelism — the ARCC configuration has 2 channels x 2 ranks versus the
// baseline's single lockstep rank, which is where its +5.9% IPC comes from
// — and (b) data-bus occupancy, which is where the worst-case bandwidth
// halving for upgraded pages comes from.
package memctrl

import (
	"fmt"

	"arcc/internal/power"
)

// Timing holds a memory generation's command timings in DRAM cycles.
type Timing struct {
	TRCD  int // activate to column command
	CL    int // column command to first data
	TRC   int // activate to activate, same bank
	Burst int // data-bus cycles per 64 B line transfer
	// TREFI/TRFC model auto-refresh: every TREFI cycles each rank is
	// unavailable for TRFC cycles. Zero TREFI disables refresh modeling.
	TREFI int
	TRFC  int
	// TCCDS/TCCDL are the DDR4/DDR5 column-to-column command gaps to a
	// different (S) or the same (L) bank group. Zero TCCDL disables
	// bank-group spacing — the DDR2 presets leave it off, so legacy
	// configurations book identically to before bank groups existed.
	TCCDS int
	TCCDL int
}

// DDR2X8Timing is the ARCC channel: 18 x8 devices form a 144-bit bus and
// move a 72 B line (data + check) in a 4-beat burst = 2 data-bus clocks.
func DDR2X8Timing() Timing { return Timing{TRCD: 4, CL: 4, TRC: 18, Burst: 2} }

// DDR2X4Timing is the baseline channel: a 36 x4-device rank also forms a
// 144-bit bus (two physical 72-bit channels in lockstep, §4.2.4), so a
// 64 B line is likewise a 4-beat burst = 2 data-bus clocks. The baseline
// differs from ARCC in rank count (1 vs 2 per channel) and devices touched
// per access (36 vs 18), not in bus width.
func DDR2X4Timing() Timing { return Timing{TRCD: 4, CL: 4, TRC: 18, Burst: 2} }

// DDR4Timing models a DDR4-2400 ECC channel in its own 1200 MHz command
// clocks (~0.83 ns): tRCD/CL ~13.3 ns, tRC ~45 ns, a BL8 burst moving a
// line in 4 bus clocks, 4-bank-group tCCD_S/tCCD_L spacing, and 7.8 us /
// 350 ns auto-refresh. Representative JEDEC speed-bin numbers — the
// figures compare configurations, they do not certify parts.
func DDR4Timing() Timing {
	return Timing{TRCD: 16, CL: 16, TRC: 54, Burst: 4,
		TREFI: 9360, TRFC: 420, TCCDS: 4, TCCDL: 6}
}

// DDR5Timing models a DDR5-4800 ECC subchannel in its own 2400 MHz command
// clocks (~0.42 ns): tRCD/CL ~16 ns, tRC ~48 ns, a BL16 burst moving a
// line in 8 bus clocks on the 40-bit subchannel, 8-bank-group spacing, and
// fine-granularity refresh (3.9 us / ~295 ns).
func DDR5Timing() Timing {
	return Timing{TRCD: 39, CL: 40, TRC: 115, Burst: 8,
		TREFI: 9360, TRFC: 708, TCCDS: 8, TCCDL: 12}
}

// Config shapes a controller.
type Config struct {
	Channels        int
	RanksPerChannel int
	BanksPerRank    int
	// BankGroups partitions each rank's banks into groups for tCCD_L/tCCD_S
	// column spacing (DDR4: 4, DDR5: 8). Zero or one means a flat DDR2-style
	// bank array with no group constraint.
	BankGroups int
	Timing     Timing
	// DevicesPerAccess is the device count charged to the power meter for
	// one single-channel access (18 for ARCC, 36 for the lockstep
	// baseline whose two physical channels fire together).
	DevicesPerAccess int
	// BurstBeats is the per-device burst length for power accounting.
	BurstBeats int
	// Pairing selects the upgraded-access pairing design (§4.2.4). The
	// zero value is the pointer-promotion design.
	Pairing Pairing
}

// Controller books command timing and records power events.
type Controller struct {
	cfg   Config
	meter *power.Meter

	bankFree [][]int64 // [channel][rank*banks] next-free cycle
	busFree  []int64   // [channel]

	// Bank-group column spacing state (tCCD): per channel, the start cycle
	// and group of the last column command. Unused unless groups is set.
	lastCol      []int64 // [channel]
	lastColGroup []int   // [channel], -1 before any column command

	// refresh and groups record, once in New, whether the timing models
	// auto-refresh and whether the configuration has bank-group column
	// spacing, so the access paths skip both when they are off.
	refresh, groups bool

	reads, writes  int64
	busBusy        int64 // accumulated data-bus busy cycles (all channels)
	bankBusy       int64 // accumulated bank busy cycles
	lastCompletion int64
}

// New creates a controller. meter may be nil to skip power accounting.
func New(cfg Config, meter *power.Meter) *Controller {
	if cfg.Channels <= 0 || cfg.RanksPerChannel <= 0 || cfg.BanksPerRank <= 0 ||
		cfg.DevicesPerAccess <= 0 || cfg.BurstBeats <= 0 {
		panic(fmt.Sprintf("memctrl: invalid config %+v", cfg))
	}
	if cfg.Timing.TRCD <= 0 || cfg.Timing.CL <= 0 || cfg.Timing.TRC <= 0 || cfg.Timing.Burst <= 0 {
		panic(fmt.Sprintf("memctrl: invalid timing %+v", cfg.Timing))
	}
	if cfg.BankGroups > 1 && cfg.BanksPerRank%cfg.BankGroups != 0 {
		panic(fmt.Sprintf("memctrl: %d banks do not divide into %d groups", cfg.BanksPerRank, cfg.BankGroups))
	}
	banks := make([][]int64, cfg.Channels)
	for i := range banks {
		banks[i] = make([]int64, cfg.RanksPerChannel*cfg.BanksPerRank)
	}
	c := &Controller{cfg: cfg, meter: meter, bankFree: banks, busFree: make([]int64, cfg.Channels),
		refresh: cfg.Timing.TREFI > 0 && cfg.Timing.TRFC > 0,
		groups:  cfg.BankGroups > 1 && cfg.Timing.TCCDL > 0,
	}
	c.lastCol = make([]int64, cfg.Channels)
	c.lastColGroup = make([]int, cfg.Channels)
	for i := range c.lastColGroup {
		c.lastColGroup[i] = -1
	}
	return c
}

// Config returns the controller's configuration.
func (c *Controller) Config() Config { return c.cfg }

// Reset returns the controller to its post-New state — all banks and buses
// free, counters zeroed — reusing the backing arrays.
// The attached power meter (if any) is NOT reset; callers that reuse a
// controller across runs reset the meter alongside (sim.Scratch does).
func (c *Controller) Reset() {
	for i := range c.bankFree {
		clear(c.bankFree[i])
	}
	clear(c.busFree)
	clear(c.lastCol)
	for i := range c.lastColGroup {
		c.lastColGroup[i] = -1
	}
	c.reads, c.writes = 0, 0
	c.busBusy, c.bankBusy = 0, 0
	c.lastCompletion = 0
}

// TotalBanks returns channels * ranks * banks — the parallelism available.
func (c *Controller) TotalBanks() int {
	return c.cfg.Channels * c.cfg.RanksPerChannel * c.cfg.BanksPerRank
}

// Access books one 64 B access on (channel, globalBank) starting no earlier
// than now, and returns its completion cycle. globalBank indexes
// rank*BanksPerRank + bank within the channel.
func (c *Controller) Access(now int64, channel, globalBank int, write bool) int64 {
	if channel < 0 || channel >= c.cfg.Channels {
		panic(fmt.Sprintf("memctrl: channel %d out of range", channel))
	}
	if globalBank < 0 || globalBank >= c.cfg.RanksPerChannel*c.cfg.BanksPerRank {
		panic(fmt.Sprintf("memctrl: bank %d out of range", globalBank))
	}
	t := &c.cfg.Timing
	start := max64(now, c.bankFree[channel][globalBank])
	if c.refresh {
		start = c.afterRefresh(start)
	}
	dataStart := max64(start+int64(t.TRCD+t.CL), c.busFree[channel])
	if c.groups {
		dataStart = c.applyCCD(channel, globalBank, dataStart)
	}
	complete := dataStart + int64(t.Burst)
	c.busFree[channel] = complete
	c.bankFree[channel][globalBank] = start + int64(t.TRC)
	c.busBusy += int64(t.Burst)
	c.bankBusy += int64(t.TRC)
	if complete > c.lastCompletion {
		c.lastCompletion = complete
	}

	if c.meter != nil {
		c.meter.RecordActivate(c.cfg.DevicesPerAccess)
		if write {
			c.meter.RecordWrite(c.cfg.DevicesPerAccess, c.cfg.BurstBeats)
		} else {
			c.meter.RecordRead(c.cfg.DevicesPerAccess, c.cfg.BurstBeats)
		}
	}
	if write {
		c.writes++
	} else {
		c.reads++
	}
	return complete
}

// Pairing selects the §4.2.4 design for keeping the two sub-lines of an
// upgraded access together.
type Pairing int

const (
	// PairPromote is the pointer-promotion design: each channel schedules
	// its sub-line independently (the partner is promoted to the head of
	// the other channel's queue when the first reaches its head); the
	// access completes when the slower channel finishes.
	PairPromote Pairing = iota
	// PairFIFO is the strict-FIFO sub-line queue design: both channels
	// synchronise before issuing, so neither sub-line starts until both
	// channels' banks are free. Simpler hardware, slightly worse latency —
	// the ablation benchmarks quantify the difference.
	PairFIFO
)

// AccessPaired books the two sub-line accesses of an upgraded 128 B line on
// the same global bank of both channels, under the controller's pairing
// policy (Config.Pairing). Only valid on two-channel configurations.
func (c *Controller) AccessPaired(now int64, globalBank int, write bool) int64 {
	if c.cfg.Channels != 2 {
		panic("memctrl: AccessPaired requires a two-channel configuration")
	}
	start := now
	if c.cfg.Pairing == PairFIFO {
		// Synchronised issue: wait for BOTH channels' banks.
		for ch := 0; ch < 2; ch++ {
			if free := c.bankFree[ch][globalBank]; free > start {
				start = free
			}
		}
	}
	// Each channel is a full access of its own (18 devices each).
	t0 := c.Access(start, 0, globalBank, write)
	t1 := c.Access(start, 1, globalBank, write)
	return max64(t0, t1)
}

// Stats returns read/write counts.
func (c *Controller) Stats() (reads, writes int64) { return c.reads, c.writes }

// BusUtilization returns the fraction of elapsed cycles the data buses were
// busy (averaged over channels). elapsed must be positive.
func (c *Controller) BusUtilization(elapsed int64) float64 {
	if elapsed <= 0 {
		panic("memctrl: non-positive elapsed time")
	}
	return float64(c.busBusy) / float64(elapsed*int64(c.cfg.Channels))
}

// BankUtilization returns the average fraction of time banks were busy —
// the activeFraction input of the background power model.
func (c *Controller) BankUtilization(elapsed int64) float64 {
	if elapsed <= 0 {
		panic("memctrl: non-positive elapsed time")
	}
	u := float64(c.bankBusy) / float64(elapsed*int64(c.TotalBanks()))
	if u > 1 {
		u = 1
	}
	return u
}

// LastCompletion returns the cycle at which the last booked access finishes.
func (c *Controller) LastCompletion() int64 { return c.lastCompletion }

// applyCCD delays a column command's data start to honour bank-group
// column-to-column spacing (tCCD_L to the same group, tCCD_S to another)
// and records the command. Banks interleave across groups (group = bank %
// BankGroups), so sequential bank interleaving alternates groups and pays
// the short gap. Called only when the configuration has bank groups and the
// timing a TCCDL (c.groups) — DDR2 configurations book identically to
// before.
func (c *Controller) applyCCD(channel, globalBank int, dataStart int64) int64 {
	t := &c.cfg.Timing
	group := (globalBank % c.cfg.BanksPerRank) % c.cfg.BankGroups
	if g := c.lastColGroup[channel]; g >= 0 {
		gap := int64(t.TCCDS)
		if g == group {
			gap = int64(t.TCCDL)
		}
		if earliest := c.lastCol[channel] + gap; earliest > dataStart {
			dataStart = earliest
		}
	}
	c.lastCol[channel] = dataStart
	c.lastColGroup[channel] = group
	return dataStart
}

// afterRefresh pushes a command start time out of any refresh window: with
// auto-refresh enabled, the first TRFC cycles of every TREFI period are
// consumed by the refresh command (all banks of the rank busy). Called only
// when the timing models refresh (c.refresh).
func (c *Controller) afterRefresh(start int64) int64 {
	t := &c.cfg.Timing
	if offset := start % int64(t.TREFI); offset < int64(t.TRFC) {
		return start - offset + int64(t.TRFC)
	}
	return start
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
