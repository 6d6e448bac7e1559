// Package core implements the paper's contribution: the Adaptive
// Reliability Chipkill Correct (ARCC) memory controller.
//
// ARCC manages a multi-channel memory in which every 4 KB physical page
// operates in one of three modes (§4.1/Fig. 4.1, and §5.1). Each mode is
// the same chipkill code shape striped over a group of w adjacent channels
// (see layout.go): four codewords of 18w symbols, one per DRAM beat, with
// 16 data and 2 check symbols in each channel.
//
//   - Relaxed (w = 1): each 64 B line lives in one channel and is protected
//     by four (18, 16) codewords — single symbol correct. A line access
//     touches 18 devices.
//   - Upgraded (w = 2): two adjacent 64 B lines, one per channel, form a
//     128 B group protected by four 36-symbol codewords with 4 check
//     symbols each. A line access touches 36 devices but gains
//     double-symbol detection (and with the sparing scheme, second-fault
//     correction).
//   - Upgraded8 (w = 4, §5.1, 4-channel systems only): four 64 B lines form
//     a 256 B group protected by four 72-symbol codewords with 8 check
//     symbols — the second upgrade level for pages that develop a second
//     fault.
//
// The controller owns the data layout, the per-page mode flag (package
// pagetable), mode transitions (a transition reads every group of the page
// in its old width and writes it back in the new one), and the scrub-facing
// raw access primitives the 4-step scrubber (package scrub) needs.
//
// Lines are interleaved across channels in the conventional way
// (SDRAM_HIPERF_MAP-style): line l of a page lives in channel l%C, slot
// l/C, so the sub-lines of a group sit at the same slot in adjacent
// channels and can be fetched in parallel.
package core

import (
	"errors"
	"fmt"

	"arcc/internal/dram"
	"arcc/internal/ecc"
	"arcc/internal/pagetable"
)

// LineBytes is the data payload of one memory line.
const LineBytes = 64

// LinesPerPage is the number of 64 B lines in a 4 KB page.
const LinesPerPage = 64

// codewordsPerLine is the number of codewords protecting one line (Fig 4.1:
// four codewords per line, one per DRAM beat).
const codewordsPerLine = 4

// dataPerCodeword is the number of data symbols each channel contributes to
// a codeword (16 symbols x 4 codewords = one 64 B line per channel).
const dataPerCodeword = 16

// ErrUncorrectable is returned by ReadLine when the ECC detects an error
// pattern it cannot repair — a DUE. The data returned alongside it is the
// best-effort raw content and must not be trusted.
var ErrUncorrectable = errors.New("core: detectable uncorrectable error")

// UpgradeCode selects the code used for upgraded pages.
type UpgradeCode int

const (
	// UpgradeSCCDCD protects upgraded pages with the commercial 4-check
	// SCCDCD code (single correct, double detect).
	UpgradeSCCDCD UpgradeCode = iota
	// UpgradeSparing protects upgraded pages with double chip sparing
	// (3 check + spare; corrects a second fault after the first is spared).
	UpgradeSparing
)

// Config sizes the ARCC memory.
type Config struct {
	// Pages is the number of 4 KB physical pages.
	Pages int
	// Channels is the number of memory channels: 2 (the evaluated
	// configuration) or 4 (enables the §5.1 Upgraded8 mode). Zero means 2.
	Channels int
	// RanksPerChannel is the number of ranks in each channel (Table 7.1:
	// two for the ARCC configuration).
	RanksPerChannel int
	// BanksPerDevice and RowsPerBank shape each rank; ColsPerRow is derived
	// from the page mapping (two pages per row).
	BanksPerDevice int
	RowsPerBank    int
	// Upgrade selects the upgraded-mode code. Zero value is SCCDCD.
	Upgrade UpgradeCode
}

// pagesPerRow: the paper assumes two 4 KB pages per DRAM row.
const pagesPerRow = 2

// Controller is the ARCC memory controller.
type Controller struct {
	cfg          Config
	numChannels  int
	slotsPerPage int // line slots each channel holds per page
	channels     [][]*dram.Rank
	table        *pagetable.Table
	stripes      [3]stripe              // per page mode: group width, code and decode scratch
	sparing      *ecc.DoubleChipSparing // non-nil iff cfg.Upgrade == UpgradeSparing

	// sparedPos[page] is the codeword position remapped to the spare for
	// sparing-mode upgraded pages; pages absent from the map have no spare
	// remap. Sparse (only spared pages are present) so a terabyte-scale
	// controller costs nothing for its healthy pages; map reads are
	// allocation-free, which keeps the upgraded access path zero-alloc.
	sparedPos map[int]int32

	// scr holds the stored-line, codeword-batch, payload, and whole-page
	// buffers every access and mode transition reuses. With the stripes'
	// decode scratch it makes the steady-state read/write/scrub/upgrade
	// paths allocation-free. A controller therefore serves one operation at
	// a time (it was never concurrency-safe: it has stats).
	scr ctrlScratch

	stats Stats
}

// stripe is one page mode's code: groups of w channels, each codeword
// 18w symbols, decoded against its own scratch.
type stripe struct {
	w    int
	code ecc.Scheme
	scr  *ecc.Scratch
}

// ctrlScratch holds the controller's reusable working buffers.
type ctrlScratch struct {
	stored  [4][]byte // per-channel stored sub-lines, storedLineBytes each
	batch   []byte    // a multi-channel group's codewords, gathered or being encoded (4 x up to 72 symbols)
	data    []byte    // one group's payload (up to a 256 B quad)
	page    []byte    // whole-page payload for mode transitions (4 KB)
	posHits [32]int   // per-position correction counts during UpgradePage
}

// Stats counts controller activity.
type Stats struct {
	Reads  int64 // line reads served (ReadLine/ReadLineInto; ReadPairInto and ReadQuadInto do not count)
	Writes int64 // line writes served
	// SubLineAccesses counts the 64 B channel accesses performed: w for
	// each read or write of a width-w group (2 per upgraded line, 4 per
	// upgraded8 line). CorrectLine alone counts unevenly: its group read
	// counts only on upgraded8 pages, and its write-back only on upgraded
	// and upgraded8 pages.
	SubLineAccesses int64
	Corrected       int64 // symbols repaired on the fly (sum of the batch decodes' repaired positions; a DUE in CorrectLine adds none)
	DUEs            int64 // accesses (a line, pair or quad) with at least one uncorrectable codeword
	PageUpgrades    int64 // relaxed -> upgraded transitions
	StrongUpgrades  int64 // upgraded -> upgraded8 transitions
}

// New builds a controller with all pages in Upgraded mode (the boot state);
// call RelaxAll or run a scrub to drop fault-free pages to relaxed mode.
func New(cfg Config) *Controller {
	if cfg.Channels == 0 {
		cfg.Channels = 2
	}
	if cfg.Channels != 2 && cfg.Channels != 4 {
		panic(fmt.Sprintf("core: unsupported channel count %d (want 2 or 4)", cfg.Channels))
	}
	if cfg.Pages <= 0 || cfg.RanksPerChannel <= 0 || cfg.BanksPerDevice <= 0 || cfg.RowsPerBank <= 0 {
		panic(fmt.Sprintf("core: invalid config %+v", cfg))
	}
	pagesPerRank := cfg.BanksPerDevice * cfg.RowsPerBank * pagesPerRow
	if cfg.Pages > pagesPerRank*cfg.RanksPerChannel {
		panic(fmt.Sprintf("core: %d pages exceed capacity %d", cfg.Pages, pagesPerRank*cfg.RanksPerChannel))
	}
	slots := LinesPerPage / cfg.Channels
	geom := dram.Geometry{
		DevicesPerRank: 18,
		BanksPerDevice: cfg.BanksPerDevice,
		RowsPerBank:    cfg.RowsPerBank,
		ColsPerRow:     pagesPerRow * slots,
		BeatsPerLine:   codewordsPerLine,
	}
	c := &Controller{
		cfg:          cfg,
		numChannels:  cfg.Channels,
		slotsPerPage: slots,
		table:        pagetable.New(cfg.Pages),
		sparedPos:    make(map[int]int32),
	}
	var upgraded ecc.Scheme
	switch cfg.Upgrade {
	case UpgradeSCCDCD:
		upgraded = ecc.NewSCCDCD()
	case UpgradeSparing:
		c.sparing = ecc.NewDoubleChipSparing()
		upgraded = c.sparing
	default:
		panic(fmt.Sprintf("core: unknown upgrade code %d", cfg.Upgrade))
	}
	for m, code := range [...]ecc.Scheme{pagetable.Relaxed: ecc.NewRelaxed(), pagetable.Upgraded: upgraded, pagetable.Upgraded8: ecc.NewEightCheck()} {
		c.stripes[m] = stripe{w: 1 << m, code: code, scr: code.NewScratch()}
	}
	c.channels = make([][]*dram.Rank, cfg.Channels)
	for ch := range c.channels {
		ranks := make([]*dram.Rank, cfg.RanksPerChannel)
		for r := range ranks {
			ranks[r] = dram.NewRank(geom)
		}
		c.channels[ch] = ranks
	}
	for i := range c.scr.stored {
		c.scr.stored[i] = make([]byte, storedLineBytes)
	}
	c.scr.batch = make([]byte, codewordsPerLine*72)
	c.scr.data = make([]byte, 4*LineBytes)
	c.scr.page = make([]byte, LinesPerPage*LineBytes)
	return c
}

// Pages returns the number of physical pages.
func (c *Controller) Pages() int { return c.cfg.Pages }

// SupportsStrongUpgrade reports whether the §5.1 Upgraded8 mode is
// available (it needs four channels to stripe eight check symbols).
func (c *Controller) SupportsStrongUpgrade() bool { return c.numChannels == 4 }

// Table exposes the page table (read-mostly; the scrubber drives upgrades
// through the controller, not by flipping flags directly).
func (c *Controller) Table() *pagetable.Table { return c.table }

// Stats returns a snapshot of the activity counters.
func (c *Controller) Stats() Stats { return c.stats }

// PageMode returns the current mode of page.
func (c *Controller) PageMode(page int) pagetable.Mode { return c.table.Mode(page) }

// Rank returns the rank serving (channel, rank index) for fault injection.
func (c *Controller) Rank(channel, rank int) *dram.Rank {
	if channel < 0 || channel >= c.numChannels {
		panic(fmt.Sprintf("core: channel %d out of range", channel))
	}
	return c.channels[channel][rank]
}

// InjectFault injects a device-level fault into (channel, rank). Lane
// faults (which affect every rank behind the channel) are modeled by
// injecting the same device fault into all ranks of the channel.
func (c *Controller) InjectFault(channel, rank int, f dram.Fault) {
	c.Rank(channel, rank).InjectFault(f)
}

// ResidentPages sums the materialised backing-store pages of every rank —
// the controller's host-memory footprint in 4 KB units, proportional to
// the lines actually written rather than the addressable capacity.
func (c *Controller) ResidentPages() int {
	n := 0
	for _, ranks := range c.channels {
		for _, r := range ranks {
			n += r.ResidentPages()
		}
	}
	return n
}

// ResidentBytes sums the host memory held by every rank's backing store.
func (c *Controller) ResidentBytes() int64 {
	var n int64
	for _, ranks := range c.channels {
		for _, r := range ranks {
			n += r.ResidentBytes()
		}
	}
	return n
}

// CompactZeroStorage releases every backing-store page whose content has
// returned to all zero (scrub-verified-zero release) and returns the
// number of pages released. The scrubber calls it after each full pass so
// pattern-tested-but-untouched memory does not stay resident.
func (c *Controller) CompactZeroStorage() int {
	n := 0
	for _, ranks := range c.channels {
		for _, r := range ranks {
			n += r.CompactZero()
		}
	}
	return n
}

// RelaxAllPristine performs the boot-time relax of a *pristine* memory in
// O(1): every code in use is linear, so the all-zero payload encodes to
// the all-zero codeword under every mode — never-touched (hole) lines are
// simultaneously valid in relaxed, upgraded, and upgraded8 form, and no
// re-encode pass is needed. This is what makes booting a terabyte-scale
// controller feasible; a memory that has been written must go through
// RelaxAll or a scrub instead, and RelaxAllPristine panics if any storage
// is resident after zero-compaction.
func (c *Controller) RelaxAllPristine() {
	c.CompactZeroStorage()
	if n := c.ResidentPages(); n > 0 {
		panic(fmt.Sprintf("core: RelaxAllPristine on a written memory (%d resident pages); use RelaxAll or a scrub", n))
	}
	c.table.RelaxAll()
	clear(c.sparedPos)
}

// addrOf maps (page, slot) to the rank index and in-rank address for one
// channel. Pages are block-distributed across ranks, interleaved across
// banks within a rank, and packed two pages per row — the mapping that
// yields Table 7.4's upgrade spans (device fault -> whole rank, bank fault
// -> 1/8 of the rank, column fault -> half a bank).
func (c *Controller) addrOf(page, slot int) (rank int, a dram.Addr) {
	if page < 0 || page >= c.cfg.Pages {
		panic(fmt.Sprintf("core: page %d out of range", page))
	}
	if slot < 0 || slot >= c.slotsPerPage {
		panic(fmt.Sprintf("core: slot %d out of range", slot))
	}
	pagesPerRank := c.cfg.BanksPerDevice * c.cfg.RowsPerBank * pagesPerRow
	rank = page / pagesPerRank
	p := page % pagesPerRank
	bank := p % c.cfg.BanksPerDevice
	rowPage := p / c.cfg.BanksPerDevice
	row := rowPage / pagesPerRow
	half := rowPage % pagesPerRow
	return rank, dram.Addr{Bank: bank, Row: row, Col: half*c.slotsPerPage + slot}
}

// channelOf maps a line index within its page to (channel, slot).
func (c *Controller) channelOf(line int) (channel, slot int) {
	if line < 0 || line >= LinesPerPage {
		panic(fmt.Sprintf("core: line %d out of range", line))
	}
	return line % c.numChannels, line / c.numChannels
}
