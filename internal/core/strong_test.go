package core

import (
	"bytes"
	"math/rand"
	"testing"

	"arcc/internal/dram"
	"arcc/internal/pagetable"
)

func quadConfig() Config {
	return Config{Pages: 32, Channels: 4, RanksPerChannel: 2, BanksPerDevice: 8, RowsPerBank: 2}
}

func newQuadController(t *testing.T) *Controller {
	t.Helper()
	c := New(quadConfig())
	c.RelaxAll()
	return c
}

func TestFourChannelRelaxedRoundTrip(t *testing.T) {
	c := newQuadController(t)
	r := rand.New(rand.NewSource(1))
	for line := 0; line < LinesPerPage; line += 3 {
		want := randLine(r)
		if err := c.WriteLine(0, line, want); err != nil {
			t.Fatal(err)
		}
		got, err := c.ReadLine(0, line)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("line %d: err=%v", line, err)
		}
	}
}

func TestFourChannelUpgradeAndStrongUpgradePreserveData(t *testing.T) {
	c := newQuadController(t)
	r := rand.New(rand.NewSource(2))
	page := 5
	want := make([][]byte, LinesPerPage)
	for line := range want {
		want[line] = randLine(r)
		if err := c.WriteLine(page, line, want[line]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.UpgradePage(page); err != nil {
		t.Fatal(err)
	}
	for line := range want {
		got, err := c.ReadLine(page, line)
		if err != nil || !bytes.Equal(got, want[line]) {
			t.Fatalf("after first upgrade, line %d: err=%v", line, err)
		}
	}
	if err := c.UpgradePageToStrong(page); err != nil {
		t.Fatal(err)
	}
	if c.PageMode(page) != pagetable.Upgraded8 {
		t.Fatal("mode not upgraded8")
	}
	if c.Stats().StrongUpgrades != 1 {
		t.Fatal("strong upgrade not counted")
	}
	for line := range want {
		got, err := c.ReadLine(page, line)
		if err != nil || !bytes.Equal(got, want[line]) {
			t.Fatalf("after strong upgrade, line %d: err=%v", line, err)
		}
	}
}

func TestUpgraded8CorrectsTwoDeviceFaultsInDifferentChannels(t *testing.T) {
	// The point of §5.1: after the second upgrade, a codeword tolerates
	// two simultaneous bad symbols — two whole-device faults in two
	// different channels — where the 4-check SCCDCD code could only
	// detect them.
	c := newQuadController(t)
	r := rand.New(rand.NewSource(3))
	page := 0
	want := make([][]byte, LinesPerPage)
	for line := range want {
		want[line] = randLine(r)
		if err := c.WriteLine(page, line, want[line]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.UpgradePage(page); err != nil {
		t.Fatal(err)
	}
	if err := c.UpgradePageToStrong(page); err != nil {
		t.Fatal(err)
	}
	c.InjectFault(0, 0, dram.Fault{Device: 3, Scope: dram.ScopeDevice, Mode: dram.StuckAt1})
	c.InjectFault(2, 0, dram.Fault{Device: 9, Scope: dram.ScopeDevice, Mode: dram.StuckAt0})
	for line := 0; line < LinesPerPage; line += 5 {
		got, err := c.ReadLine(page, line)
		if err != nil {
			t.Fatalf("line %d: double-channel fault not corrected by 8-check mode: %v", line, err)
		}
		if !bytes.Equal(got, want[line]) {
			t.Fatalf("line %d: wrong correction", line)
		}
	}
}

func TestUpgraded8ReadCostsFourSubLines(t *testing.T) {
	c := newQuadController(t)
	if err := c.UpgradePage(0); err != nil {
		t.Fatal(err)
	}
	if err := c.UpgradePageToStrong(0); err != nil {
		t.Fatal(err)
	}
	before := c.Stats().SubLineAccesses
	if _, err := c.ReadLine(0, 0); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().SubLineAccesses - before; got != 4 {
		t.Fatalf("upgraded8 read made %d sub-line accesses, want 4", got)
	}
}

func TestWriteLineOnUpgraded8ReadModifyWrite(t *testing.T) {
	c := newQuadController(t)
	r := rand.New(rand.NewSource(4))
	page := 1
	quadLines := []int{8, 9, 10, 11} // quad 2
	want := make(map[int][]byte)
	for _, line := range quadLines {
		want[line] = randLine(r)
		if err := c.WriteLine(page, line, want[line]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.UpgradePage(page); err != nil {
		t.Fatal(err)
	}
	if err := c.UpgradePageToStrong(page); err != nil {
		t.Fatal(err)
	}
	// Overwrite one quarter; the other three must survive.
	want[9] = randLine(r)
	if err := c.WriteLine(page, 9, want[9]); err != nil {
		t.Fatal(err)
	}
	for _, line := range quadLines {
		got, err := c.ReadLine(page, line)
		if err != nil || !bytes.Equal(got, want[line]) {
			t.Fatalf("line %d corrupted by partial quad write (err=%v)", line, err)
		}
	}
}

func TestWriteQuadAndReadQuad(t *testing.T) {
	c := newQuadController(t)
	if err := c.UpgradePage(2); err != nil {
		t.Fatal(err)
	}
	if err := c.UpgradePageToStrong(2); err != nil {
		t.Fatal(err)
	}
	// Write quad 3 line by line (each WriteLine is a quad
	// read-modify-write), then read the whole quad back.
	data := make([]byte, 4*LineBytes)
	rand.New(rand.NewSource(5)).Read(data)
	for i := 0; i < 4; i++ {
		if err := c.WriteLine(2, 4*3+i, data[i*LineBytes:(i+1)*LineBytes]); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]byte, 4*LineBytes)
	if err := c.ReadQuadInto(2, 3, got); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("quad round trip failed: %v", err)
	}
}

func TestStrongUpgradePanicsOnTwoChannelSystem(t *testing.T) {
	c := New(testConfig()) // 2 channels
	c.RelaxAll()
	if err := c.UpgradePage(0); err != nil {
		t.Fatal(err)
	}
	if c.SupportsStrongUpgrade() {
		t.Fatal("two-channel system claims strong-upgrade support")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("UpgradePageToStrong on 2-channel system did not panic")
		}
	}()
	_ = c.UpgradePageToStrong(0)
}

func TestStrongUpgradePanicsOnRelaxedPage(t *testing.T) {
	c := newQuadController(t)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	_ = c.UpgradePageToStrong(0) // page is relaxed, not upgraded
}

func TestNewPanicsOnOddChannelCount(t *testing.T) {
	cfg := testConfig()
	cfg.Channels = 3
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(cfg)
}

func TestFourChannelScrubPrimitivesCoverAllLines(t *testing.T) {
	// RawReadInto/RawWrite/CorrectLine must address all 64 lines across
	// the four channels without collisions.
	c := newQuadController(t)
	for line := 0; line < LinesPerPage; line++ {
		raw := bytes.Repeat([]byte{byte(line)}, storedLineBytes)
		c.RawWrite(7, line, raw)
	}
	got := make([]byte, storedLineBytes)
	for line := 0; line < LinesPerPage; line++ {
		c.RawReadInto(7, line, got)
		if got[0] != byte(line) {
			t.Fatalf("line %d raw data collided: got %#x", line, got[0])
		}
	}
}

func TestCorrectLineOnUpgraded8(t *testing.T) {
	c := newQuadController(t)
	r := rand.New(rand.NewSource(6))
	want := randLine(r)
	if err := c.WriteLine(0, 0, want); err != nil {
		t.Fatal(err)
	}
	if err := c.UpgradePage(0); err != nil {
		t.Fatal(err)
	}
	if err := c.UpgradePageToStrong(0); err != nil {
		t.Fatal(err)
	}
	c.InjectFault(1, 0, dram.Fault{Device: 2, Scope: dram.ScopeDevice, Mode: dram.WrongData})
	n, err := c.CorrectLine(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("CorrectLine found nothing behind a WrongData fault in upgraded8 mode")
	}
	got, err := c.ReadLine(0, 0)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("data wrong after upgraded8 CorrectLine (err=%v)", err)
	}
}
