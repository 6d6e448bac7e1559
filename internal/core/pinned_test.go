package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"arcc/internal/dram"
	"arcc/internal/pagetable"
)

// TestControllerPinned runs one seeded sequence of every controller access
// and mode transition on each channel count and upgrade code, with device
// faults the codes still correct (and, for SCCDCD pairs, a second fault they
// only detect), and pins a hash of everything the controller returned: the
// data and error of every call, the final Stats, every page's mode and every
// sub-line's stored image. A change to the data layout, the codes or any
// Stats count changes the hash.
func TestControllerPinned(t *testing.T) {
	want := map[string]string{
		"2ch/sccdcd":  "65e2a9213739ae98946843f7cd11ccec3240fb371ff2deadb1e6a3f720b3f13b",
		"2ch/sparing": "2b4f96e2e21534cc305b917fb5b46e96bcc581a62f2153232e7756be03af7532",
		"4ch/sccdcd":  "9d55d91f877b0fe47c32f8811116dd0b757045d47a3393e893dd779411370164",
		"4ch/sparing": "4aaefc4449e99c26c28cbfac484bfffd9f26b8945227e84d78669d5c2436b171",
	}
	for _, channels := range []int{2, 4} {
		for _, up := range []UpgradeCode{UpgradeSCCDCD, UpgradeSparing} {
			name := fmt.Sprintf("%dch/%s", channels, map[UpgradeCode]string{UpgradeSCCDCD: "sccdcd", UpgradeSparing: "sparing"}[up])
			t.Run(name, func(t *testing.T) {
				if got := pinnedRun(channels, up); got != want[name] {
					t.Errorf("controller hash = %s, want %s", got, want[name])
				}
			})
		}
	}
}

// pinnedRun plays the pinned sequence on a fresh 24-page controller (pages
// 0-15 in rank 0, 16-23 in rank 1) and returns the hex hash of its results.
func pinnedRun(channels int, up UpgradeCode) string {
	c := New(Config{Pages: 24, Channels: channels, RanksPerChannel: 2, BanksPerDevice: 8, RowsPerBank: 1, Upgrade: up})
	r := rand.New(rand.NewSource(29))
	h := sha256.New()
	note := func(data []byte, err error) {
		h.Write(data)
		if err != nil {
			h.Write([]byte(err.Error()))
		}
		h.Write([]byte{'|'})
	}
	line := make([]byte, LineBytes)
	pair := make([]byte, 2*LineBytes)
	quad := make([]byte, 4*LineBytes)

	mixed := func(n int) {
		for i := 0; i < n; i++ {
			page, ln := r.Intn(c.Pages()), r.Intn(LinesPerPage)
			switch r.Intn(4) {
			case 0:
				r.Read(line)
				note(nil, c.WriteLine(page, ln, line))
			case 1:
				note(line, c.ReadLineInto(page, ln, line))
			case 2:
				fixed, err := c.CorrectLine(page, ln)
				note([]byte{byte(fixed)}, err)
			case 3:
				switch c.PageMode(page) {
				case pagetable.Upgraded:
					if r.Intn(2) == 0 {
						note(pair, c.ReadPairInto(page, ln/2, pair))
					} else {
						r.Read(pair)
						c.WritePair(page, ln/2, pair)
					}
				case pagetable.Upgraded8:
					note(quad, c.ReadQuadInto(page, ln/4, quad))
				}
			}
		}
	}

	// Fill every boot-upgraded page by pairs, then relax three pages in four.
	for page := 0; page < c.Pages(); page++ {
		for p := 0; p < LinesPerPage/2; p++ {
			r.Read(pair)
			c.WritePair(page, p, pair)
		}
	}
	for page := 0; page < c.Pages(); page++ {
		if page%4 != 1 {
			note(nil, c.RelaxPage(page))
		}
	}
	mixed(400)

	// One dead device in rank 0: every mode corrects it. Upgrade rank 0's
	// relaxed pages (the sparing code votes the device onto its spare) and,
	// on four channels, promote every third upgraded page.
	c.InjectFault(0, 0, dram.Fault{Device: 3, Scope: dram.ScopeDevice, Mode: dram.WrongData})
	mixed(400)
	for page := 0; page < 16; page++ {
		if c.PageMode(page) == pagetable.Relaxed {
			note(nil, c.UpgradePage(page))
		}
	}
	if c.SupportsStrongUpgrade() {
		for page := 0; page < c.Pages(); page += 3 {
			if c.PageMode(page) == pagetable.Upgraded {
				note(nil, c.UpgradePageToStrong(page))
			}
		}
	}
	mixed(400)

	// A second fault, one bank of a device in the partner channel: spared
	// pairs and quads correct both, SCCDCD pairs detect them.
	c.InjectFault(1, 0, dram.Fault{Device: 7, Scope: dram.ScopeBank, Bank: 2, Mode: dram.StuckAt1})
	mixed(400)
	for _, page := range []int{2, 5, 16, 17, 18, 19, 20, 21, 22, 23} {
		if c.PageMode(page) == pagetable.Upgraded {
			note(nil, c.RelaxPage(page))
		}
	}
	mixed(200)

	fmt.Fprintf(h, "%+v", c.Stats())
	raw := make([]byte, storedLineBytes)
	for page := 0; page < c.Pages(); page++ {
		h.Write([]byte{byte(c.PageMode(page))})
		for ln := 0; ln < LinesPerPage; ln++ {
			h.Write(c.RawReadInto(page, ln, raw))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
