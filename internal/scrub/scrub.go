// Package scrub implements ARCC's enhanced memory scrubber (§4.2.2).
//
// A conventional scrubber reads every line, corrects what the ECC can
// correct, and writes it back. That leaves *hidden* stuck-at faults
// undetected: a stuck-at-0 cell currently storing a 0 produces no syndrome.
// ARCC's reliability argument assumes an ideal scrubber that finds all
// faults at the end of each scrub, so the paper hardens the scrubber with
// write-pattern tests:
//
//  1. Read the line and set its value aside.
//  2. Write all 0s, read back: any 1 reveals a stuck-at-1 fault.
//  3. Write all 1s, read back: any 0 reveals a stuck-at-0 fault.
//  4. Correct any errors in the original content and write it back.
//
// A page in which any step finds a fault is upgraded at the end of the
// scrub. The scrubber also measures its own cost so the bandwidth-overhead
// numbers of §4.2.2 (six memory passes instead of two, ~0.0167% of
// bandwidth at one scrub per four hours) can be reproduced.
package scrub

import (
	"bytes"
	"fmt"

	"arcc/internal/core"
)

// Algorithm selects the scrubbing algorithm.
type Algorithm int

const (
	// FourStep is ARCC's pattern-testing scrubber described above.
	FourStep Algorithm = iota
	// Conventional only reads, corrects, and writes back — it misses
	// hidden stuck-at faults (kept for the ablation benchmarks).
	Conventional
)

// Scrubber drives periodic scrubs over an ARCC controller.
type Scrubber struct {
	mem  *core.Controller
	algo Algorithm

	// Pattern-test working buffers, allocated once: the all-zeros and
	// all-ones patterns plus the set-aside original content and read-back
	// buffer. With these (and the controller's own scratch) a steady-state
	// scrub pass performs zero heap allocations.
	zeros, ones, orig, back []byte

	stats Stats
}

// Stats accumulates scrubbing activity.
type Stats struct {
	Scrubs         int64 // full-memory scrubs completed
	LinesScrubbed  int64
	FaultyPages    int64 // pages found faulty (cumulative over scrubs)
	PagesUpgraded  int64
	HiddenStuckAt  int64 // faults caught only by the pattern tests
	ECCCorrections int64 // faults caught by the ECC decode in step 4
	DUEs           int64 // uncorrectable patterns encountered during scrub
	MemoryAccesses int64 // line-sized reads+writes issued (cost model)
}

// New creates a scrubber over mem.
func New(mem *core.Controller, algo Algorithm) *Scrubber {
	if algo != FourStep && algo != Conventional {
		panic(fmt.Sprintf("scrub: unknown algorithm %d", algo))
	}
	const stored = 72 // stored bytes per sub-line (64 data + 8 redundant)
	return &Scrubber{
		mem:   mem,
		algo:  algo,
		zeros: make([]byte, stored),
		ones:  bytes.Repeat([]byte{0xFF}, stored),
		orig:  make([]byte, stored),
		back:  make([]byte, stored),
	}
}

// Stats returns a snapshot of accumulated statistics.
func (s *Scrubber) Stats() Stats { return s.stats }

// ScrubPage scrubs one page and reports whether a fault was found in it.
// The page is NOT upgraded here — mode changes happen at the end of a full
// scrub (FullScrub), matching the paper's "upgrade at the end of every
// memory scrub".
func (s *Scrubber) ScrubPage(page int) bool {
	faulty := false
	for line := 0; line < core.LinesPerPage; line++ {
		s.stats.LinesScrubbed++
		switch s.algo {
		case FourStep:
			// Step 1: read and set aside.
			orig := s.mem.RawReadInto(page, line, s.orig)
			// Step 2: all-zeros pattern exposes stuck-at-1.
			s.mem.RawWrite(page, line, s.zeros)
			back := s.mem.RawReadInto(page, line, s.back)
			patternFault := !bytes.Equal(back, s.zeros)
			// Step 3: all-ones pattern exposes stuck-at-0.
			s.mem.RawWrite(page, line, s.ones)
			back = s.mem.RawReadInto(page, line, s.back)
			if !bytes.Equal(back, s.ones) {
				patternFault = true
			}
			// Step 4: restore original content, then let the ECC repair it.
			s.mem.RawWrite(page, line, orig)
			corrected, err := s.mem.CorrectLine(page, line)
			s.stats.MemoryAccesses += 6
			if patternFault {
				s.stats.HiddenStuckAt++
				faulty = true
			}
			if corrected > 0 {
				s.stats.ECCCorrections += int64(corrected)
				faulty = true
			}
			if err != nil {
				s.stats.DUEs++
				faulty = true
			}
		case Conventional:
			corrected, err := s.mem.CorrectLine(page, line)
			s.stats.MemoryAccesses += 2
			if corrected > 0 {
				s.stats.ECCCorrections += int64(corrected)
				faulty = true
			}
			if err != nil {
				s.stats.DUEs++
				faulty = true
			}
		}
	}
	if faulty {
		s.stats.FaultyPages++
	}
	return faulty
}

// FullScrub scrubs every page and then applies ARCC's mode transitions:
// faulty relaxed pages are upgraded. It returns the pages found faulty.
func (s *Scrubber) FullScrub() []int {
	var faulty []int
	for page := 0; page < s.mem.Pages(); page++ {
		if s.ScrubPage(page) {
			faulty = append(faulty, page)
		}
	}
	s.applyModeTransitions(faulty)
	s.stats.Scrubs++
	// Pattern testing materialises backing pages even where memory was
	// never written; release everything that is verified all-zero so a
	// scrub pass is footprint-neutral on the sparse store.
	s.mem.CompactZeroStorage()
	return faulty
}

// BootScrub performs the boot sequence of §4.2.1: with every page still in
// the upgraded boot state, scrub the memory and relax every fault-free
// page. Faulty pages stay upgraded. Returns the number of pages relaxed.
func (s *Scrubber) BootScrub() int {
	relaxed := 0
	for page := 0; page < s.mem.Pages(); page++ {
		if !s.ScrubPage(page) {
			if err := s.mem.RelaxPage(page); err == nil {
				relaxed++
			}
		}
	}
	s.stats.Scrubs++
	s.mem.CompactZeroStorage()
	return relaxed
}

// CostModel quantifies the scrubber's bandwidth overhead, reproducing the
// §4.2.2 arithmetic.
type CostModel struct {
	// MemoryBytes is the channel capacity being scrubbed.
	MemoryBytes float64
	// ChannelBytesPerSecond is the peak channel bandwidth (a 128-bit wide
	// 667 MT/s channel moves 667e6 * 16 bytes/s).
	ChannelBytesPerSecond float64
	// ScrubIntervalHours is the time between scrubs.
	ScrubIntervalHours float64
}

// PassSeconds is the time for one full read or write pass over memory.
func (m CostModel) PassSeconds() float64 {
	return m.MemoryBytes / m.ChannelBytesPerSecond
}

// ScrubSeconds returns the duration of one scrub under algo: the four-step
// scrubber makes six passes (read, write 0, read, write 1, read, write
// back), the conventional one makes two.
func (m CostModel) ScrubSeconds(algo Algorithm) float64 {
	passes := 2.0
	if algo == FourStep {
		passes = 6.0
	}
	return passes * m.PassSeconds()
}

// BandwidthOverhead returns the fraction of peak bandwidth consumed by
// scrubbing (§4.2.2 computes 0.000167 for 4 GB at 667 MT/s every 4 hours).
func (m CostModel) BandwidthOverhead(algo Algorithm) float64 {
	return m.ScrubSeconds(algo) / (m.ScrubIntervalHours * 3600)
}
