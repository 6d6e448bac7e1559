package core

import (
	"fmt"

	"arcc/internal/pagetable"
)

// This file implements the §5.1 second upgrade level: when a codeword in an
// upgraded page develops a second bad symbol, the page's codewords can be
// striped across FOUR memory channels, giving each codeword eight check
// symbols (the EightCheck scheme: 64 data + 8 check symbols, correcting two
// bad symbols outright).
//
// Quad layout: lines 4q..4q+3 of a page share slot q in channels 0..3.
// Codeword c of the quad (72 symbols) is
//
//	[ ch0 data d0[16c..16c+15] | ch1 data | ch2 data | ch3 data | r0..r7 ]
//
// with data symbols 16k..16k+15 and check symbols 64+2k, 64+2k+1 stored in
// channel k — every stored symbol still owns its device, so a whole-device
// fault costs one symbol per codeword and a whole-channel (lane) fault
// costs at most 18 positions spread across four codewords' disjoint ranges.

// quadChannels returns the base slot of quad q; channels are always 0..3.
func (c *Controller) quadSlot(quad int) int {
	line := 4 * quad
	_, slot := c.channelOf(line)
	return slot
}

// readQuadStored fetches the four stored sub-lines of a quad into the
// controller's scratch buffers (valid until the next operation).
func (c *Controller) readQuadStored(page, quad int) [4][]byte {
	c.mustSupportStrong()
	slot := c.quadSlot(quad)
	rank, addr := c.addrOf(page, slot)
	var stored [4][]byte
	for ch := 0; ch < 4; ch++ {
		stored[ch] = c.channels[ch][rank].ReadLineInto(addr, c.scr.stored[ch])
	}
	c.stats.SubLineAccesses += 4
	return stored
}

// ReadQuadInto reads upgraded8 quad q (lines 4q..4q+3) of page into a
// caller-owned 256 B buffer. All four channels are accessed in lockstep.
// The returned error is ErrUncorrectable for DUEs. It performs no heap
// allocations.
func (c *Controller) ReadQuadInto(page, quad int, data []byte) error {
	if len(data) != 4*LineBytes {
		panic(fmt.Sprintf("core: ReadQuadInto with %d bytes, want %d", len(data), 4*LineBytes))
	}
	return c.readQuadInto(page, quad, data)
}

// readQuadInto is ReadQuadInto without the length check.
func (c *Controller) readQuadInto(page, quad int, data []byte) error {
	if c.table.Mode(page) != pagetable.Upgraded8 {
		panic(fmt.Sprintf("core: ReadQuadInto on %v page %d", c.table.Mode(page), page))
	}
	stored := c.readQuadStored(page, quad)
	corrected, err := c.decodeQuadInto(stored, data)
	c.noteOutcome(corrected, err)
	return err
}

// writeQuadStored encodes a 256 B quad and stores its four sub-lines,
// assembling the codewords and stored images in the controller's scratch.
func (c *Controller) writeQuadStored(page, quad int, data []byte) {
	c.mustSupportStrong()
	if len(data) != 4*LineBytes {
		panic(fmt.Sprintf("core: quad encode with %d bytes, want %d", len(data), 4*LineBytes))
	}
	slot := c.quadSlot(quad)
	rank, addr := c.addrOf(page, slot)
	full := c.scr.full[:72]
	for cw := 0; cw < codewordsPerLine; cw++ {
		for ch := 0; ch < 4; ch++ {
			copy(full[ch*16:(ch+1)*16], data[ch*LineBytes+cw*16:ch*LineBytes+cw*16+16])
		}
		c.eight.EncodeInto(full)
		for ch := 0; ch < 4; ch++ {
			stored := c.scr.stored[ch]
			copy(stored[cw*18:], full[ch*16:(ch+1)*16])
			stored[cw*18+16] = full[64+2*ch]
			stored[cw*18+17] = full[64+2*ch+1]
		}
	}
	for ch := 0; ch < 4; ch++ {
		c.channels[ch][rank].WriteLine(addr, c.scr.stored[ch])
	}
	c.stats.SubLineAccesses += 4
}

// decodeQuadInto decodes four stored sub-lines into the 256-byte data
// buffer, reporting the corrected symbol count. Like the pair path, the
// four 72-symbol codewords are gathered into the controller's flat batch
// buffer (stride 72) and decoded as one batch call; corrected
// lanes then hold the repaired codeword and DUE lanes the raw gathered
// symbols, so the data scatter is uniform.
func (c *Controller) decodeQuadInto(stored [4][]byte, data []byte) (corrected int, err error) {
	for ch := 0; ch < 4; ch++ {
		if len(stored[ch]) != storedLineBytes {
			panic("core: quad decode with wrong stored sizes")
		}
	}
	batch := c.scr.batch[:codewordsPerLine*72]
	for cw := 0; cw < codewordsPerLine; cw++ {
		full := batch[cw*72 : (cw+1)*72]
		for ch := 0; ch < 4; ch++ {
			copy(full[ch*16:(ch+1)*16], stored[ch][cw*18:cw*18+16])
			full[64+2*ch] = stored[ch][cw*18+16]
			full[64+2*ch+1] = stored[ch][cw*18+17]
		}
	}
	var derr error
	corrected, derr = c.eight.DecodeBatchInto(batch, 72, codewordsPerLine, c.scr.eight)
	if derr != nil {
		err = ErrUncorrectable
	}
	for cw := 0; cw < codewordsPerLine; cw++ {
		full := batch[cw*72 : (cw+1)*72]
		for ch := 0; ch < 4; ch++ {
			copy(data[ch*LineBytes+cw*16:], full[ch*16:(ch+1)*16])
		}
	}
	return corrected, err
}

// UpgradePageToStrong raises an Upgraded page to Upgraded8 (§5.1): the
// page's pairs are read out (correcting what the 4-check code still can),
// re-encoded as four-channel quads with eight check symbols, and written
// back. Requires a four-channel controller. The page payload is staged in
// the controller's whole-page scratch, so the transition does not allocate.
func (c *Controller) UpgradePageToStrong(page int) error {
	c.mustSupportStrong()
	if c.table.Mode(page) != pagetable.Upgraded {
		panic(fmt.Sprintf("core: UpgradePageToStrong on %v page %d", c.table.Mode(page), page))
	}
	var readErr error
	pageData := c.scr.page
	for pair := 0; pair < LinesPerPage/2; pair++ {
		if err := c.readPairInto(page, pair, pageData[pair*2*LineBytes:(pair+1)*2*LineBytes]); err != nil {
			readErr = err
		}
	}
	c.table.SetMode(page, pagetable.Upgraded8)
	delete(c.sparedPos, page)
	c.stats.StrongUpgrades++

	for quad := 0; quad < LinesPerPage/4; quad++ {
		c.writeQuadStored(page, quad, pageData[quad*4*LineBytes:(quad+1)*4*LineBytes])
	}
	return readErr
}

func (c *Controller) mustSupportStrong() {
	if !c.SupportsStrongUpgrade() {
		panic("core: Upgraded8 mode requires a four-channel configuration (§5.1)")
	}
}
