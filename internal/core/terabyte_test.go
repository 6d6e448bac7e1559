package core

import (
	"bytes"
	"testing"

	"arcc/internal/pagetable"
)

// terabyteConfig spans 2^28 4 KB pages = 1 TiB of data space: 2 channels x
// 2 ranks, 32 banks, 2^21 rows, two pages per row. Before the sparse
// rebase (dense per-page mode array + dense sparedPos + map-of-lines
// store) merely constructing this controller cost gigabytes; now
// construction is O(1) in the page count and residency tracks the touched
// footprint.
func terabyteConfig() Config {
	return Config{
		Pages:           1 << 28,
		Channels:        2,
		RanksPerChannel: 2,
		BanksPerDevice:  32,
		RowsPerBank:     1 << 21,
	}
}

func TestTerabyteControllerResidencyProportionalToTouch(t *testing.T) {
	c := New(terabyteConfig())
	if got := c.Pages(); got != 1<<28 {
		t.Fatalf("Pages() = %d, want %d", got, 1<<28)
	}

	// O(1) boot relax of the pristine memory: holes are valid in every
	// mode because all codes are linear (zero encodes to zero).
	c.RelaxAllPristine()
	if got := c.Table().Count(pagetable.Relaxed); got != 1<<28 {
		t.Fatalf("relaxed pages = %d, want all %d", got, 1<<28)
	}

	// Touch a scattered set of pages across the whole terabyte.
	data := make([]byte, LineBytes)
	for i := range data {
		data[i] = byte(i + 3)
	}
	const touched = 200
	stride := (1 << 28) / touched
	for i := 0; i < touched; i++ {
		page := i*stride + (i*i)%stride // scattered, covers all ranks
		if err := c.WriteLine(page, i%LinesPerPage, data); err != nil {
			t.Fatalf("WriteLine(page %d): %v", page, err)
		}
	}

	// Residency must be proportional to the touched pages, nowhere near
	// the 2^28-page address space. Each written 72-byte stored line spans
	// at most 2 backing pages per channel touched.
	if rp := c.ResidentPages(); rp == 0 || rp > 4*touched {
		t.Fatalf("ResidentPages = %d after touching %d pages, want (0, %d]", rp, touched, 4*touched)
	}
	if rb := c.ResidentBytes(); rb > int64(4*touched*4096) {
		t.Fatalf("ResidentBytes = %d, want <= %d", rb, 4*touched*4096)
	}

	// Read everything back — touched lines decode to the written data,
	// untouched lines anywhere in the terabyte read as zero.
	got := make([]byte, LineBytes)
	for i := 0; i < touched; i++ {
		page := i*stride + (i*i)%stride
		if err := c.ReadLineInto(page, i%LinesPerPage, got); err != nil {
			t.Fatalf("ReadLineInto(page %d): %v", page, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("page %d read-back mismatch", page)
		}
	}
	zero := make([]byte, LineBytes)
	for _, page := range []int{1, 1 << 20, 1<<28 - 1} {
		if err := c.ReadLineInto(page, 63, got); err != nil {
			t.Fatalf("ReadLineInto(untouched page %d): %v", page, err)
		}
		if !bytes.Equal(got, zero) {
			t.Fatalf("untouched page %d reads non-zero", page)
		}
	}

	// Upgrading a touched page keeps working at this scale (pagetable's
	// TestUpgradeLevels pins the table's sparse footprint).
	if err := c.UpgradePage(0); err != nil {
		t.Fatalf("UpgradePage(0): %v", err)
	}
	if c.PageMode(0) != pagetable.Upgraded {
		t.Fatalf("page 0 mode = %v after upgrade", c.PageMode(0))
	}
	if n := c.Table().Count(pagetable.Upgraded); n != 1 {
		t.Fatalf("%d upgraded pages after one upgrade, want 1", n)
	}

	// Zeroing the touched lines and compacting returns the controller to
	// (near-)pristine residency.
	for i := 0; i < touched; i++ {
		page := i*stride + (i*i)%stride
		if err := c.WriteLine(page, i%LinesPerPage, zero); err != nil {
			t.Fatalf("WriteLine(zero, page %d): %v", page, err)
		}
	}
	c.CompactZeroStorage()
	if rp := c.ResidentPages(); rp != 0 {
		t.Fatalf("ResidentPages = %d after zeroing + compaction, want 0", rp)
	}
}

func TestRelaxAllPristineRejectsWrittenMemory(t *testing.T) {
	c := New(Config{Pages: 64, RanksPerChannel: 1, BanksPerDevice: 8, RowsPerBank: 8})
	data := make([]byte, LineBytes)
	data[0] = 1
	if err := c.WriteLine(0, 0, data); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("RelaxAllPristine on a written memory did not panic")
		}
	}()
	c.RelaxAllPristine()
}

// TestRelaxAllPristineMatchesRelaxAll proves the O(1) pristine relax is
// observationally identical to the O(pages) re-encode relax on a pristine
// memory: same modes, same subsequent read/write behaviour.
func TestRelaxAllPristineMatchesRelaxAll(t *testing.T) {
	cfg := Config{Pages: 32, RanksPerChannel: 1, BanksPerDevice: 8, RowsPerBank: 4}
	fast := New(cfg)
	slow := New(cfg)
	fast.RelaxAllPristine()
	slow.RelaxAll()

	data := make([]byte, LineBytes)
	for i := range data {
		data[i] = byte(i * 7)
	}
	gotF := make([]byte, LineBytes)
	gotS := make([]byte, LineBytes)
	rawF := make([]byte, storedLineBytes)
	rawS := make([]byte, storedLineBytes)
	for page := 0; page < cfg.Pages; page++ {
		if fast.PageMode(page) != slow.PageMode(page) {
			t.Fatalf("page %d: mode %v vs %v", page, fast.PageMode(page), slow.PageMode(page))
		}
		line := page % LinesPerPage
		if err := fast.WriteLine(page, line, data); err != nil {
			t.Fatal(err)
		}
		if err := slow.WriteLine(page, line, data); err != nil {
			t.Fatal(err)
		}
		if err := fast.ReadLineInto(page, line, gotF); err != nil {
			t.Fatal(err)
		}
		if err := slow.ReadLineInto(page, line, gotS); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotF, gotS) || !bytes.Equal(gotF, data) {
			t.Fatalf("page %d: divergent read-back", page)
		}
		// The raw stored form must agree too.
		if !bytes.Equal(fast.RawReadInto(page, line, rawF), slow.RawReadInto(page, line, rawS)) {
			t.Fatalf("page %d: divergent stored form", page)
		}
	}
}
