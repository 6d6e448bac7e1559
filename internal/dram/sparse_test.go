package dram

import (
	"math"
	"testing"
)

// TestGeometryOverflowRejected is the regression test for the flat-address
// widening fix: geometries whose flat line or byte address space overflows
// uint64 must be rejected at construction, not silently wrap in flat().
func TestGeometryOverflowRejected(t *testing.T) {
	// The sizes are held as int64 so the table compiles for 32-bit
	// targets, where a case with a size above math.MaxInt is skipped.
	overflowing := []struct{ banks, rows, cols int64 }{
		// banks * rows alone overflows.
		{1 << 32, 1 << 33, 2},
		// banks * rows * cols overflows.
		{1 << 22, 1 << 22, 1 << 22},
		// The line count fits but the byte address space does not.
		{1 << 20, 1 << 20, 1 << 19},
	}
	for i, c := range overflowing {
		if max(c.banks, c.rows, c.cols) > math.MaxInt {
			continue
		}
		g := Geometry{DevicesPerRank: 18, BanksPerDevice: int(c.banks), RowsPerBank: int(c.rows), ColsPerRow: int(c.cols), BeatsPerLine: 4}
		if _, err := g.TotalBytes(); err == nil {
			t.Errorf("case %d: TotalBytes accepted overflowing geometry %+v", i, g)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: NewRank accepted overflowing geometry %+v", i, g)
				}
			}()
			NewRank(g)
		}()
	}
	// A terabyte-scale geometry that does NOT overflow must be accepted.
	big := Geometry{DevicesPerRank: 18, BanksPerDevice: 32, RowsPerBank: 1 << 21, ColsPerRow: 1 << 8, BeatsPerLine: 4}
	lines, err := big.TotalLines()
	if err != nil {
		t.Fatalf("TotalLines(%+v): %v", big, err)
	}
	if want := uint64(32) << 29; lines != want {
		t.Fatalf("TotalLines = %d, want %d", lines, want)
	}
	bytes, err := big.TotalBytes()
	if err != nil {
		t.Fatalf("TotalBytes(%+v): %v", big, err)
	}
	if want := lines * 72; bytes != want {
		t.Fatalf("TotalBytes = %d, want %d", bytes, want)
	}
	if bytes < 1<<40 {
		t.Fatalf("test geometry spans %d bytes, want >= 1 TiB", bytes)
	}
}

// TestRankResidencyProportionalToTouch pins the tentpole property at the
// rank level: a terabyte-scale rank holds host memory proportional to the
// lines actually written, and scrub-verified-zero release reclaims pages
// whose content returns to zero.
func TestRankResidencyProportionalToTouch(t *testing.T) {
	g := Geometry{DevicesPerRank: 18, BanksPerDevice: 32, RowsPerBank: 1 << 21, ColsPerRow: 1 << 8, BeatsPerLine: 4}
	r := NewRank(g)

	line := make([]byte, g.LineBytes())
	for i := range line {
		line[i] = byte(i + 1)
	}
	// Scatter 1000 lines across the full bank/row space.
	const writes = 1000
	for i := 0; i < writes; i++ {
		a := Addr{Bank: i % 32, Row: int(int64(i) * 2654435761 % (1 << 21)), Col: i % (1 << 8)}
		r.WriteLine(a, line)
	}
	// Each 72-byte line touches at most 2 backing pages.
	if rp := r.ResidentPages(); rp == 0 || rp > 2*writes {
		t.Fatalf("ResidentPages = %d after %d scattered writes, want (0, %d]", rp, writes, 2*writes)
	}
	if rb := r.ResidentBytes(); rb > 2*writes*rankPageBytes {
		t.Fatalf("ResidentBytes = %d, not proportional to %d touched lines", rb, writes)
	}

	// Reads of never-written space are zero and materialise nothing.
	before := r.ResidentPages()
	out := make([]byte, g.LineBytes())
	r.ReadLineInto(Addr{Bank: 5, Row: 12345, Col: 17}, out)
	for i, b := range out {
		if b != 0 {
			t.Fatalf("unwritten line byte %d = %#x, want 0", i, b)
		}
	}
	if r.ResidentPages() != before {
		t.Fatal("read of unwritten space materialised pages")
	}

	// Zeroing the written lines and compacting releases everything.
	clear(line)
	for i := 0; i < writes; i++ {
		a := Addr{Bank: i % 32, Row: int(int64(i) * 2654435761 % (1 << 21)), Col: i % (1 << 8)}
		r.WriteLine(a, line)
	}
	r.CompactZero()
	if rp := r.ResidentPages(); rp != 0 {
		t.Fatalf("ResidentPages = %d after zeroing + CompactZero, want 0", rp)
	}
}
