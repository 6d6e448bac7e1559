// Package cpu provides the trace-driven core model that stands in for the
// paper's M5 full-system simulation (Table 7.2: a 2-wide out-of-order core
// with a 240-entry L2 MSHR file).
//
// The model is deliberately simple but captures the two couplings the
// experiments depend on:
//
//   - latency sensitivity: a core can overlap a bounded number of misses
//     (MLP); once the window fills it stalls until the oldest completes, so
//     longer memory latencies directly cost cycles;
//   - bandwidth sensitivity: the memory system books real bus/bank
//     occupancy per miss, so a core issuing misses faster than memory can
//     drain them piles up its own future stalls.
//
// Instructions between misses retire at the core's peak width.
package cpu

import "fmt"

// Config shapes one core.
type Config struct {
	// WidthIPC is the peak commit rate in instructions per CPU cycle
	// (Table 7.2: superscalar width 2).
	WidthIPC float64
	// MLP is the number of outstanding misses the core overlaps before
	// stalling (bounded in practice by the ROB/LSQ, far below the 240
	// MSHRs of Table 7.2).
	MLP int
	// HitLatency is the LLC hit latency in CPU cycles (Table 7.2: 10).
	HitLatency int64
}

// DefaultConfig mirrors Table 7.2.
func DefaultConfig() Config { return Config{WidthIPC: 2, MLP: 4, HitLatency: 10} }

// Core is one simulated core. Time is in CPU cycles.
type Core struct {
	cfg          Config
	time         int64
	instructions int64
	outstanding  []int64 // completion times of in-flight misses, sorted
}

// New creates a core at time zero.
func New(cfg Config) *Core {
	if cfg.WidthIPC <= 0 || cfg.MLP <= 0 || cfg.HitLatency < 0 {
		panic(fmt.Sprintf("cpu: invalid config %+v", cfg))
	}
	// The outstanding window never exceeds MLP entries; pre-sizing it (and
	// compacting in place in retire) keeps the miss path allocation-free.
	return &Core{cfg: cfg, outstanding: make([]int64, 0, cfg.MLP+1)}
}

// Reset returns the core to its post-New state (time zero, no committed
// instructions, empty miss window), reusing the outstanding-miss backing
// array. sim.Scratch resets rather than reallocates cores between runs.
func (c *Core) Reset() {
	c.time = 0
	c.instructions = 0
	c.outstanding = c.outstanding[:0]
}

// Now returns the core's current cycle.
func (c *Core) Now() int64 { return c.time }

// Instructions returns the committed instruction count.
func (c *Core) Instructions() int64 { return c.instructions }

// AdvanceCompute retires gap instructions at peak width.
func (c *Core) AdvanceCompute(gap int) {
	if gap < 0 {
		panic(fmt.Sprintf("cpu: negative gap %d", gap))
	}
	c.instructions += int64(gap)
	c.time += int64(float64(gap)/c.cfg.WidthIPC + 0.5)
	c.retire()
}

// NoteHit charges an LLC hit's exposed latency.
func (c *Core) NoteHit() {
	c.time += c.cfg.HitLatency
	c.retire()
}

// Issuer books a demand miss with the memory system: IssueAt is called with
// the cycle at which the request leaves the core and must return its
// completion cycle. The indirection lets the memory system book bus/bank
// occupancy at the true issue time; implementing it on a long-lived struct
// (rather than a per-miss closure) keeps the miss path allocation-free.
type Issuer interface {
	IssueAt(now int64) (complete int64)
}

// IssueMissTo registers a demand miss. If the MLP window is full the core
// first stalls until the oldest outstanding miss completes. It performs no
// heap allocations.
func (c *Core) IssueMissTo(iss Issuer) {
	c.retire()
	if len(c.outstanding) >= c.cfg.MLP {
		// Stall until the oldest miss returns.
		oldest := c.outstanding[0]
		if oldest > c.time {
			c.time = oldest
		}
		c.retire()
	}
	complete := iss.IssueAt(c.time)
	if complete < c.time {
		complete = c.time
	}
	// Insert keeping the window sorted: it holds fewer than MLP entries
	// here (a full window stalled and retired its oldest above), so it
	// grows in place within the capacity New reserved, shifting the later
	// completions up one slot.
	n := len(c.outstanding)
	c.outstanding = c.outstanding[:n+1]
	for ; n > 0 && c.outstanding[n-1] > complete; n-- {
		c.outstanding[n] = c.outstanding[n-1]
	}
	c.outstanding[n] = complete

	// A miss also has some exposed front-end cost even when overlapped.
	c.time += c.cfg.HitLatency
}

// Drain stalls until every outstanding miss has completed (end of a run).
func (c *Core) Drain() {
	if n := len(c.outstanding); n > 0 {
		last := c.outstanding[n-1]
		if last > c.time {
			c.time = last
		}
		c.outstanding = c.outstanding[:0]
	}
}

func (c *Core) retire() {
	i := 0
	for i < len(c.outstanding) && c.outstanding[i] <= c.time {
		i++
	}
	if i > 0 {
		// Compact in place (rather than reslice the front off) so the
		// window's backing array keeps its capacity and the miss path never
		// regrows it.
		n := copy(c.outstanding, c.outstanding[i:])
		c.outstanding = c.outstanding[:n]
	}
}
