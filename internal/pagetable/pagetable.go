// Package pagetable models the one extension ARCC makes to the page table
// and TLB (§4.2.1): a per-physical-page chipkill-strength flag. Pages start
// in the strongest mode at boot; the first full memory scrub relaxes every
// fault-free page, and later scrubs upgrade pages in which faults are
// detected.
package pagetable

import "fmt"

// Mode is the chipkill-correct strength a physical page operates in.
type Mode int

const (
	// Relaxed: two check symbols per codeword; 64 B lines served by one
	// channel (18 devices). The low-power state.
	Relaxed Mode = iota
	// Upgraded: four check symbols per codeword; 128 B lines served by two
	// channels in lockstep (36 devices).
	Upgraded
	// Upgraded8: eight check symbols per codeword across four channels —
	// the §5.1 second upgrade level for pages that develop a second fault.
	Upgraded8
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Relaxed:
		return "relaxed"
	case Upgraded:
		return "upgraded"
	case Upgraded8:
		return "upgraded8"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Table tracks the strength flag of every physical page. The zero page
// count is rejected; all pages start Upgraded, matching the paper's boot
// sequence ("the operating system is started up in the upgraded mode for
// every page").
//
// The representation is sparse: a default mode plus an exception map of
// the pages that differ from it. Construction and RelaxAll are O(1) and a
// table over 2^28 pages (a terabyte of 4 KB pages) costs memory
// proportional to the pages whose mode has actually diverged — in a
// healthy memory, the handful of faulty upgraded pages.
type Table struct {
	numPages int
	def      Mode         // mode of every page not in except
	except   map[int]Mode // pages whose mode differs from def
	counts   [3]int
}

// New creates a table of numPages physical pages, all in Upgraded mode.
func New(numPages int) *Table {
	if numPages <= 0 {
		panic(fmt.Sprintf("pagetable: invalid page count %d", numPages))
	}
	t := &Table{numPages: numPages, def: Upgraded, except: make(map[int]Mode)}
	t.counts[Upgraded] = numPages
	return t
}

// Mode returns the current strength of page.
func (t *Table) Mode(page int) Mode {
	t.check(page)
	if m, ok := t.except[page]; ok {
		return m
	}
	return t.def
}

// SetMode changes the strength of page.
func (t *Table) SetMode(page int, m Mode) {
	t.check(page)
	if m < Relaxed || m > Upgraded8 {
		panic(fmt.Sprintf("pagetable: invalid mode %d", m))
	}
	old := t.Mode(page)
	if old == m {
		return
	}
	t.counts[old]--
	t.counts[m]++
	if m == t.def {
		delete(t.except, page)
	} else {
		t.except[page] = m
	}
}

// RelaxAll sets every page to Relaxed — the action of the first boot-time
// scrub on a fault-free memory. O(1): it flips the default and drops the
// exceptions.
func (t *Table) RelaxAll() {
	t.def = Relaxed
	clear(t.except)
	t.counts = [3]int{}
	t.counts[Relaxed] = t.numPages
}

// Count returns the number of pages currently in mode m.
func (t *Table) Count(m Mode) int {
	if m < Relaxed || m > Upgraded8 {
		panic(fmt.Sprintf("pagetable: invalid mode %d", m))
	}
	return t.counts[m]
}

// UpgradedFraction returns the fraction of pages above Relaxed mode.
func (t *Table) UpgradedFraction() float64 {
	return float64(t.counts[Upgraded]+t.counts[Upgraded8]) / float64(t.numPages)
}

func (t *Table) check(page int) {
	if page < 0 || page >= t.numPages {
		panic(fmt.Sprintf("pagetable: page %d outside [0, %d)", page, t.numPages))
	}
}
