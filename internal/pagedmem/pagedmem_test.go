package pagedmem

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestNewValidatesPageSize(t *testing.T) {
	for _, bad := range []int{0, -4096, 32, 48, 100, 4095} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", bad)
				}
			}()
			New(bad)
		}()
	}
	for _, good := range []int{64, 128, 4096, 1 << 20} {
		if m := New(good); m.pageBytes != good {
			t.Errorf("page size = %d, want %d", m.pageBytes, good)
		}
	}
}

func TestHolesReadZeroWithoutAllocating(t *testing.T) {
	m := New(4096)
	buf := make([]byte, 300)
	for i := range buf {
		buf[i] = 0xAA
	}
	m.LoadInto(1<<40+123, buf)
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("hole read byte %d = %#x, want 0", i, b)
		}
	}
	if m.ResidentPages() != 0 {
		t.Fatalf("hole read materialised %d pages", m.ResidentPages())
	}
}

func TestZeroStoreOverHolePreservesHole(t *testing.T) {
	m := New(256)
	zeros := make([]byte, 1000) // spans 4+ pages
	m.StoreFrom(512, zeros)
	if m.ResidentPages() != 0 {
		t.Fatalf("all-zero store materialised %d pages", m.ResidentPages())
	}
	// A single non-zero byte materialises exactly the page holding it.
	data := make([]byte, 1000)
	data[700] = 1
	m.StoreFrom(512, data)
	if m.ResidentPages() != 1 {
		t.Fatalf("resident pages = %d, want 1", m.ResidentPages())
	}
	got := make([]byte, 1000)
	m.LoadInto(512, got)
	if !bytes.Equal(got, data) {
		t.Fatal("read-back mismatch after sparse store")
	}
}

// TestDifferentialAgainstDenseReference drives random load/store/release
// sequences through Memory and a dense reference array in lockstep —
// cross-page spans, zero stores over holes, page releases — and checks
// byte-for-byte agreement plus the sorted-table invariant throughout.
func TestDifferentialAgainstDenseReference(t *testing.T) {
	const (
		pageBytes = 256
		space     = 64 * pageBytes // dense mirror size
		ops       = 20000
	)
	rng := rand.New(rand.NewSource(42))
	m := New(pageBytes)
	ref := make([]byte, space)
	scratch := make([]byte, 3*pageBytes)

	for op := 0; op < ops; op++ {
		n := 1 + rng.Intn(len(scratch))
		addr := uint64(rng.Intn(space - n))
		switch k := rng.Intn(10); {
		case k < 4: // store random data
			buf := scratch[:n]
			rng.Read(buf)
			if rng.Intn(4) == 0 { // sometimes mostly-zero data
				for i := range buf {
					if rng.Intn(8) != 0 {
						buf[i] = 0
					}
				}
			}
			m.StoreFrom(addr, buf)
			copy(ref[addr:], buf)
		case k < 6: // store zeros (hole-preserving over holes, page-zeroing otherwise)
			buf := scratch[:n]
			clear(buf)
			m.StoreFrom(addr, buf)
			copy(ref[addr:], buf)
		case k < 9: // load and compare
			buf := scratch[:n]
			m.LoadInto(addr, buf)
			if !bytes.Equal(buf, ref[addr:int(addr)+n]) {
				t.Fatalf("op %d: load mismatch at %#x+%d", op, addr, n)
			}
		default: // release the pages that have gone all-zero
			m.CompactZero()
			for i := range m.bases {
				if allZero(m.pages[i]) {
					t.Fatalf("op %d: all-zero page %#x survived CompactZero", op, m.bases[i])
				}
			}
		}
		if op%997 == 0 {
			if err := m.sanityCheck(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}

	// Full sweep: every byte agrees with the dense reference.
	got := make([]byte, space)
	m.LoadInto(0, got)
	if !bytes.Equal(got, ref) {
		t.Fatal("final full-space read disagrees with dense reference")
	}
	if err := m.sanityCheck(); err != nil {
		t.Fatal(err)
	}

	// CompactZero releases exactly the all-zero resident pages and changes
	// no observable content.
	m.CompactZero()
	m.LoadInto(0, got)
	if !bytes.Equal(got, ref) {
		t.Fatal("CompactZero changed memory content")
	}
	for i := 0; i < len(m.bases); i++ {
		if allZero(m.pages[i]) {
			t.Fatalf("all-zero page %#x survived CompactZero", m.bases[i])
		}
	}
}

func TestAccounting(t *testing.T) {
	m := New(4096)
	one := []byte{1}
	// Touch 8 scattered pages across a 2^44-byte span.
	for i := 0; i < 8; i++ {
		m.StoreFrom(uint64(i)<<41, one)
	}
	if m.ResidentPages() != 8 {
		t.Fatalf("resident %d, want 8", m.ResidentPages())
	}
	if m.ResidentBytes() != 8*4096 {
		t.Fatalf("ResidentBytes() = %d, want %d", m.ResidentBytes(), 8*4096)
	}
	// Zero two pages and release them.
	zero := make([]byte, 1)
	m.StoreFrom(0<<41, zero)
	m.StoreFrom(3<<41, zero)
	if n := m.CompactZero(); n != 2 {
		t.Fatalf("CompactZero released %d pages, want 2", n)
	}
	if m.ResidentPages() != 6 {
		t.Fatalf("after release: resident %d, want 6", m.ResidentPages())
	}
	// Re-touching a released page materialises it again.
	m.StoreFrom(0<<41, one)
	if m.ResidentPages() != 7 || m.ResidentBytes() != 7*4096 {
		t.Fatalf("after re-touch: resident %d pages, %d bytes, want 7 pages", m.ResidentPages(), m.ResidentBytes())
	}
}

func TestReleasedBuffersAreReused(t *testing.T) {
	m := New(4096)
	one := []byte{1}
	m.StoreFrom(0, one)
	m.StoreFrom(0, []byte{0})
	if m.CompactZero() != 1 {
		t.Fatal("zeroed page did not release")
	}
	// Re-materialising must come from the free list, not the heap.
	allocs := testing.AllocsPerRun(1, func() {
		m.StoreFrom(0, one)
		m.StoreFrom(0, []byte{0})
		m.CompactZero()
	})
	if allocs != 0 {
		t.Fatalf("release/re-touch cycle allocates %v times per run, want 0", allocs)
	}
	// A reused buffer must come back zeroed.
	m.StoreFrom(100, one)
	got := make([]byte, 4096)
	m.LoadInto(0, got)
	for i, b := range got {
		if i != 100 && b != 0 {
			t.Fatalf("reused page byte %d = %#x, want 0", i, b)
		}
	}
}

func TestSteadyStateZeroAllocs(t *testing.T) {
	m := New(4096)
	line := make([]byte, 72)
	for i := range line {
		line[i] = byte(i + 1)
	}
	out := make([]byte, 72)
	// Pre-materialise the pages the loop touches (including a cross-page
	// line at the 4 KB boundary).
	m.StoreFrom(4096-36, line)
	m.StoreFrom(9000, line)
	allocs := testing.AllocsPerRun(100, func() {
		m.StoreFrom(9000, line)
		m.LoadInto(9000, out)
		m.StoreFrom(4096-36, line) // crosses a page boundary
		m.LoadInto(4096-36, out)
		m.LoadInto(1<<50, out) // hole read
	})
	if allocs != 0 {
		t.Fatalf("steady-state load/store allocates %v times per run, want 0", allocs)
	}
}

func TestSpanWrapPanics(t *testing.T) {
	m := New(64)
	defer func() {
		if recover() == nil {
			t.Fatal("wrapping span did not panic")
		}
	}()
	m.LoadInto(^uint64(0)-10, make([]byte, 64))
}
