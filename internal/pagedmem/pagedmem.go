// Package pagedmem is a page-granular sparse memory core: a flat byte
// address space of up to 2^64 bytes in which only the pages that have ever
// held non-trivial data are materialised. It is the storage substrate that
// lets the simulator span terabyte address spaces with host memory
// proportional to the *touched* footprint rather than the addressable one.
//
// # Layout
//
// The space is divided into fixed power-of-two pages. Allocated pages live
// in a sorted page table — two parallel slices, `bases` (ascending page
// numbers) and `pages` (their backing buffers) — in the page-hole idiom of
// the classic sparse VM cores: a lookup binary-searches `bases`, and any
// page number absent from it is a *hole*.
//
// # Hole semantics
//
// Holes read as zero (a freshly initialised, scrubbed memory) and reads
// never allocate. Writes materialise a page only when they would make it
// differ from a hole: storing all-zero bytes over a hole is a no-op, so
// sweeping zero-fill passes over pristine memory cost nothing. Pages whose
// content has returned to all-zero are released back to holes in bulk
// (CompactZero), which is what the scrubber calls after a verified pass so
// that pattern-tested-but-untouched memory does not stay resident.
//
// # Accounting
//
// ResidentPages/ResidentBytes report the currently materialised footprint.
// Tests pin "resident memory proportional to touched pages" against these
// numbers.
//
// # Allocation contract
//
// Steady-state loads and stores to already-materialised pages perform no
// heap allocations (pinned by testing.AllocsPerRun); only the first write
// that materialises a page allocates, and released page buffers are kept in
// a small free list for reuse.
package pagedmem

import (
	"fmt"
	"math/bits"
	"sort"
)

// maxFreePages bounds the released-buffer free list: enough to absorb
// scrub-style release/re-touch churn without hoarding a large high-water
// footprint forever.
const maxFreePages = 16

// Memory is a sparse byte-addressable space. The zero value is not usable;
// construct with New.
type Memory struct {
	pageBytes int
	shift     uint   // log2(pageBytes)
	offMask   uint64 // pageBytes-1

	bases []uint64 // sorted page numbers of materialised pages
	pages [][]byte // parallel backing buffers, len == pageBytes each
	free  [][]byte // released buffers kept for reuse (bounded)

	hint int // last hit index in bases: accelerates sequential runs
}

// New creates an empty memory with the given page size, which must be a
// power of two of at least 64 bytes.
func New(pageBytes int) *Memory {
	if pageBytes < 64 || pageBytes&(pageBytes-1) != 0 {
		panic(fmt.Sprintf("pagedmem: page size %d is not a power of two >= 64", pageBytes))
	}
	return &Memory{
		pageBytes: pageBytes,
		shift:     uint(bits.TrailingZeros(uint(pageBytes))),
		offMask:   uint64(pageBytes - 1),
	}
}

// ResidentPages returns the number of currently materialised pages.
func (m *Memory) ResidentPages() int { return len(m.bases) }

// ResidentBytes returns the bytes held by materialised pages.
func (m *Memory) ResidentBytes() int64 { return int64(len(m.bases)) * int64(m.pageBytes) }

// find binary-searches the page table for page number pn. It returns the
// index holding pn and true, or the insertion index and false. A one-entry
// hint makes runs of accesses to the same page O(1).
func (m *Memory) find(pn uint64) (int, bool) {
	n := len(m.bases)
	if h := m.hint; h < n && m.bases[h] == pn {
		return h, true
	}
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m.bases[mid] < pn {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < n && m.bases[lo] == pn {
		m.hint = lo
		return lo, true
	}
	return lo, false
}

// materialise inserts a zeroed page for pn at table index i (from a failed
// find) and returns its buffer.
func (m *Memory) materialise(pn uint64, i int) []byte {
	var buf []byte
	if n := len(m.free); n > 0 {
		buf = m.free[n-1]
		m.free[n-1] = nil
		m.free = m.free[:n-1]
		clear(buf)
	} else {
		buf = make([]byte, m.pageBytes)
	}
	m.bases = append(m.bases, 0)
	m.pages = append(m.pages, nil)
	copy(m.bases[i+1:], m.bases[i:])
	copy(m.pages[i+1:], m.pages[i:])
	m.bases[i] = pn
	m.pages[i] = buf
	m.hint = i
	return buf
}

// release removes table index i, parking its buffer on the free list.
func (m *Memory) release(i int) {
	buf := m.pages[i]
	copy(m.bases[i:], m.bases[i+1:])
	copy(m.pages[i:], m.pages[i+1:])
	last := len(m.bases) - 1
	m.pages[last] = nil
	m.bases = m.bases[:last]
	m.pages = m.pages[:last]
	if len(m.free) < maxFreePages {
		m.free = append(m.free, buf)
	}
	if m.hint > i {
		m.hint--
	}
}

func (m *Memory) checkSpan(addr uint64, n int) {
	if n < 0 {
		panic(fmt.Sprintf("pagedmem: negative span %d", n))
	}
	if uint64(n) > 0 && addr+uint64(n)-1 < addr {
		panic(fmt.Sprintf("pagedmem: span [%#x, +%d) wraps the address space", addr, n))
	}
}

// LoadInto fills out with the bytes at [addr, addr+len(out)), zero-filling
// any holes. It never allocates.
func (m *Memory) LoadInto(addr uint64, out []byte) {
	m.checkSpan(addr, len(out))
	for len(out) > 0 {
		pn := addr >> m.shift
		off := int(addr & m.offMask)
		n := m.pageBytes - off
		if n > len(out) {
			n = len(out)
		}
		if i, ok := m.find(pn); ok {
			copy(out[:n], m.pages[i][off:off+n])
		} else {
			clear(out[:n])
		}
		addr += uint64(n)
		out = out[n:]
	}
}

// StoreFrom writes data at [addr, addr+len(data)). Pages are materialised
// lazily: a store whose bytes for a hole page are all zero leaves the hole
// in place, so zero-writes over pristine memory cost nothing. Stores to
// already-materialised pages do not allocate.
func (m *Memory) StoreFrom(addr uint64, data []byte) {
	m.checkSpan(addr, len(data))
	for len(data) > 0 {
		pn := addr >> m.shift
		off := int(addr & m.offMask)
		n := m.pageBytes - off
		if n > len(data) {
			n = len(data)
		}
		i, ok := m.find(pn)
		if !ok {
			if allZero(data[:n]) {
				addr += uint64(n)
				data = data[n:]
				continue
			}
			m.materialise(pn, i)
		}
		copy(m.pages[i][off:off+n], data[:n])
		addr += uint64(n)
		data = data[n:]
	}
}

// CompactZero scans the page table and releases every all-zero page,
// returning the number released. The scrubber calls it after a full
// verified pass so memory it only pattern-tested does not stay resident.
func (m *Memory) CompactZero() int {
	released := 0
	for i := 0; i < len(m.bases); {
		if allZero(m.pages[i]) {
			m.release(i)
			released++
		} else {
			i++
		}
	}
	return released
}

// allZero reports whether b contains only zero bytes, eight bytes at a
// time (the page-release scan is on the scrub path).
func allZero(b []byte) bool {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		if b[i]|b[i+1]|b[i+2]|b[i+3]|b[i+4]|b[i+5]|b[i+6]|b[i+7] != 0 {
			return false
		}
	}
	for ; i < len(b); i++ {
		if b[i] != 0 {
			return false
		}
	}
	return true
}

// sanityCheck verifies the sorted-table invariant; tests call it after
// mutation sequences.
func (m *Memory) sanityCheck() error {
	if len(m.bases) != len(m.pages) {
		return fmt.Errorf("pagedmem: %d bases but %d pages", len(m.bases), len(m.pages))
	}
	if !sort.SliceIsSorted(m.bases, func(i, j int) bool { return m.bases[i] < m.bases[j] }) {
		return fmt.Errorf("pagedmem: page table out of order")
	}
	for i := 1; i < len(m.bases); i++ {
		if m.bases[i] == m.bases[i-1] {
			return fmt.Errorf("pagedmem: duplicate page %#x", m.bases[i])
		}
	}
	for i, p := range m.pages {
		if len(p) != m.pageBytes {
			return fmt.Errorf("pagedmem: page %#x has %d bytes", m.bases[i], len(p))
		}
	}
	return nil
}
