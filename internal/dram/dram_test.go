package dram

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// readLine reads a line into a fresh buffer.
func readLine(r *Rank, a Addr) []byte {
	return r.ReadLineInto(a, make([]byte, r.geom.LineBytes()))
}

func testGeom() Geometry {
	return Geometry{
		DevicesPerRank: 18,
		BanksPerDevice: 8,
		RowsPerBank:    64,
		ColsPerRow:     32,
		BeatsPerLine:   4,
	}
}

func TestLineBytes(t *testing.T) {
	if got := testGeom().LineBytes(); got != 72 {
		t.Fatalf("LineBytes = %d, want 72 (18 devices x 4 beats)", got)
	}
}

func TestNewRankPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRank with zero geometry did not panic")
		}
	}()
	NewRank(Geometry{})
}

func TestUnwrittenLinesReadZero(t *testing.T) {
	r := NewRank(testGeom())
	line := readLine(r, Addr{Bank: 3, Row: 10, Col: 5})
	for _, b := range line {
		if b != 0 {
			t.Fatal("unwritten line is not zero")
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	r := NewRank(testGeom())
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		a := Addr{Bank: rng.Intn(8), Row: rng.Intn(64), Col: rng.Intn(32)}
		data := make([]byte, 72)
		rng.Read(data)
		r.WriteLine(a, data)
		if got := readLine(r, a); !bytes.Equal(got, data) {
			t.Fatalf("round trip mismatch at %+v", a)
		}
	}
}

func TestWriteLineCopiesData(t *testing.T) {
	r := NewRank(testGeom())
	data := make([]byte, 72)
	data[0] = 0x42
	a := Addr{}
	r.WriteLine(a, data)
	data[0] = 0x00 // caller mutates its buffer afterwards
	if got := readLine(r, a); got[0] != 0x42 {
		t.Fatal("WriteLine aliased the caller's buffer")
	}
}

func TestAddressesAreIndependent(t *testing.T) {
	// Property: flat addressing is injective across the geometry.
	g := Geometry{DevicesPerRank: 2, BanksPerDevice: 4, RowsPerBank: 8, ColsPerRow: 4, BeatsPerLine: 1}
	f := func(b1, r1, c1, b2, r2, c2 uint8) bool {
		a1 := Addr{Bank: int(b1) % 4, Row: int(r1) % 8, Col: int(c1) % 4}
		a2 := Addr{Bank: int(b2) % 4, Row: int(r2) % 8, Col: int(c2) % 4}
		if a1 == a2 {
			return true
		}
		return g.flat(a1) != g.flat(a2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestValidatePanicsOutOfRange(t *testing.T) {
	r := NewRank(testGeom())
	for _, a := range []Addr{{Bank: 8}, {Row: 64}, {Col: 32}, {Bank: -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("address %+v did not panic", a)
				}
			}()
			readLine(r, a)
		}()
	}
}

func TestDeviceFaultCorruptsOnlyItsSymbols(t *testing.T) {
	r := NewRank(testGeom())
	a := Addr{Bank: 1, Row: 2, Col: 3}
	data := make([]byte, 72)
	for i := range data {
		data[i] = 0x55
	}
	r.WriteLine(a, data)
	r.InjectFault(Fault{Device: 7, Scope: ScopeDevice, Mode: StuckAt0})
	got := readLine(r, a)
	for beat := 0; beat < 4; beat++ {
		for dev := 0; dev < 18; dev++ {
			idx := beat*18 + dev
			want := byte(0x55)
			if dev == 7 {
				want = 0x00
			}
			if got[idx] != want {
				t.Fatalf("beat %d dev %d: got %#x, want %#x", beat, dev, got[idx], want)
			}
		}
	}
}

func TestStuckAt1Fault(t *testing.T) {
	r := NewRank(testGeom())
	a := Addr{}
	r.InjectFault(Fault{Device: 0, Scope: ScopeDevice, Mode: StuckAt1})
	got := readLine(r, a)
	for beat := 0; beat < 4; beat++ {
		if got[beat*18] != 0xFF {
			t.Fatalf("beat %d: stuck-at-1 device read %#x", beat, got[beat*18])
		}
	}
}

func TestBitFaultFlipsSingleBit(t *testing.T) {
	r := NewRank(testGeom())
	a := Addr{Bank: 2, Row: 5, Col: 9}
	data := make([]byte, 72)
	r.WriteLine(a, data)
	r.InjectFault(Fault{Device: 4, Scope: ScopeBit, Mode: StuckAt1, Bank: 2, Row: 5, Col: 9, Bit: 3})
	got := readLine(r, a)
	for beat := 0; beat < 4; beat++ {
		if got[beat*18+4] != 1<<3 {
			t.Fatalf("beat %d: bit fault produced %#x, want %#x", beat, got[beat*18+4], 1<<3)
		}
	}
	// A different address in the same bank is untouched.
	other := readLine(r, Addr{Bank: 2, Row: 5, Col: 10})
	for _, b := range other {
		if b != 0 {
			t.Fatal("bit fault leaked to another column")
		}
	}
}

func TestScopeCoverage(t *testing.T) {
	cases := []struct {
		fault Fault
		hit   []Addr
		miss  []Addr
	}{
		{
			Fault{Device: 0, Scope: ScopeBank, Mode: StuckAt1, Bank: 3},
			[]Addr{{Bank: 3}, {Bank: 3, Row: 63, Col: 31}},
			[]Addr{{Bank: 2}, {Bank: 4, Row: 63}},
		},
		{
			Fault{Device: 0, Scope: ScopeRow, Mode: StuckAt1, Bank: 1, Row: 7},
			[]Addr{{Bank: 1, Row: 7}, {Bank: 1, Row: 7, Col: 31}},
			[]Addr{{Bank: 1, Row: 8}, {Bank: 0, Row: 7}},
		},
		{
			Fault{Device: 0, Scope: ScopeColumn, Mode: StuckAt1, Bank: 1, Col: 4},
			[]Addr{{Bank: 1, Col: 4}, {Bank: 1, Row: 50, Col: 4}},
			[]Addr{{Bank: 1, Col: 5}, {Bank: 2, Col: 4}},
		},
		{
			Fault{Device: 0, Scope: ScopeWord, Mode: StuckAt1, Bank: 6, Row: 9, Col: 2},
			[]Addr{{Bank: 6, Row: 9, Col: 2}},
			[]Addr{{Bank: 6, Row: 9, Col: 3}, {Bank: 6, Row: 10, Col: 2}},
		},
	}
	for _, tc := range cases {
		r := NewRank(testGeom())
		r.InjectFault(tc.fault)
		for _, a := range tc.hit {
			if got := readLine(r, a); got[0] != 0xFF {
				t.Errorf("%v fault missed address %+v", tc.fault.Scope, a)
			}
		}
		for _, a := range tc.miss {
			if got := readLine(r, a); got[0] != 0x00 {
				t.Errorf("%v fault hit address %+v it should not cover", tc.fault.Scope, a)
			}
		}
	}
}

func TestWrongDataFaultIsDeterministicAndWrong(t *testing.T) {
	r := NewRank(testGeom())
	a := Addr{Bank: 0, Row: 1, Col: 2}
	data := make([]byte, 72)
	for i := range data {
		data[i] = byte(i)
	}
	r.WriteLine(a, data)
	r.InjectFault(Fault{Device: 3, Scope: ScopeDevice, Mode: WrongData})
	first := readLine(r, a)
	second := readLine(r, a)
	if !bytes.Equal(first, second) {
		t.Fatal("WrongData fault is not deterministic across reads")
	}
	if bytes.Equal(first, data) {
		t.Fatal("WrongData fault returned the stored data")
	}
	// Only device 3's symbols differ.
	for i := range first {
		if i%18 == 3 {
			continue
		}
		if first[i] != data[i] {
			t.Fatalf("WrongData corrupted symbol %d belonging to device %d", i, i%18)
		}
	}
}

func TestMultipleFaultsAccumulate(t *testing.T) {
	r := NewRank(testGeom())
	r.InjectFault(Fault{Device: 1, Scope: ScopeDevice, Mode: StuckAt1})
	r.InjectFault(Fault{Device: 2, Scope: ScopeDevice, Mode: StuckAt0})
	data := make([]byte, 72)
	for i := range data {
		data[i] = 0x77
	}
	a := Addr{}
	r.WriteLine(a, data)
	got := readLine(r, a)
	for i := range got {
		want := byte(0x77)
		switch i % 18 {
		case 1:
			want = 0xFF
		case 2:
			want = 0x00
		}
		if got[i] != want {
			t.Fatalf("accumulated faults: symbol %d = %#x, want %#x", i, got[i], want)
		}
	}
}

func TestFaultValidatePanics(t *testing.T) {
	r := NewRank(testGeom())
	bad := []Fault{
		{Device: 18, Scope: ScopeDevice},
		{Device: 0, Scope: ScopeBank, Bank: 8},
		{Device: 0, Scope: ScopeRow, Bank: 0, Row: 64},
		{Device: 0, Scope: ScopeColumn, Bank: 0, Col: 32},
		{Device: 0, Scope: ScopeBit, Bank: 0, Row: 0, Col: 0, Bit: 8},
	}
	for _, f := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("fault %+v did not panic", f)
				}
			}()
			r.InjectFault(f)
		}()
	}
}

func TestScopeAndModeStrings(t *testing.T) {
	if ScopeRow.String() != "row" || ScopeDevice.String() != "device" {
		t.Fatal("Scope.String wrong")
	}
	if StuckAt0.String() != "stuck-at-0" || WrongData.String() != "wrong-data" {
		t.Fatal("Mode.String wrong")
	}
	if Scope(99).String() == "" || Mode(99).String() == "" {
		t.Fatal("unknown enum values must still print")
	}
}

func TestStuckFaultHiddenUntilRead(t *testing.T) {
	// A stuck-at-0 cell holding a 0 is invisible; the scrubber's write-1
	// pass is what exposes it. This test pins the mechanism the 4-step
	// scrub algorithm (§4.2.2) relies on.
	r := NewRank(testGeom())
	a := Addr{Bank: 0, Row: 0, Col: 0}
	r.InjectFault(Fault{Device: 5, Scope: ScopeDevice, Mode: StuckAt0})

	zeros := make([]byte, 72)
	r.WriteLine(a, zeros)
	if got := readLine(r, a); !bytes.Equal(got, zeros) {
		t.Fatal("stuck-at-0 visible while holding zeros; should be hidden")
	}

	ones := make([]byte, 72)
	for i := range ones {
		ones[i] = 0xFF
	}
	r.WriteLine(a, ones)
	got := readLine(r, a)
	if got[5] != 0x00 {
		t.Fatal("stuck-at-0 did not corrupt the all-ones pattern")
	}
}
