package core

import (
	"fmt"

	"arcc/internal/pagetable"
)

// UpgradePage raises page from relaxed to upgraded mode (§4.2.1): every
// line of the page is read out (correcting errors on the way), adjacent
// line pairs are joined into 128 B upgraded lines, and the page is written
// back in the stronger layout. Only this page is touched. The page payload
// is staged in the controller's whole-page scratch, so the transition does
// not allocate.
//
// When the upgraded code is double chip sparing and the relaxed reads
// corrected a consistent symbol position (a dead device), that position is
// remapped to the spare so a *second* device fault remains correctable.
//
// A DUE while reading the relaxed content is propagated; the page is still
// upgraded (with the raw content), which matches a controller that must not
// lose the upgrade just because one word was unrecoverable, but the caller
// is told data was lost.
func (c *Controller) UpgradePage(page int) error {
	if c.table.Mode(page) != pagetable.Relaxed {
		panic(fmt.Sprintf("core: UpgradePage on %v page %d", c.table.Mode(page), page))
	}

	// Read out all 64 lines in relaxed form, tracking corrected positions:
	// positionHits identifies which upgraded-codeword positions were
	// repaired so sparing can remap a consistently-failing device. Data
	// from an even channel occupies positions 0..15 of the upgraded
	// codeword, from an odd channel 16..31. Each line decodes in place on
	// the read path's own batch decode; a data symbol whose byte the decode
	// changed is a repaired position (the decoder never reports a
	// zero-magnitude correction, and DUE codewords stay raw).
	var readErr error
	positionHits := &c.scr.posHits
	clear(positionHits[:])
	pageData := c.scr.page
	for line := 0; line < LinesPerPage; line++ {
		ch, slot := c.channelOf(line)
		rank, addr := c.addrOf(page, slot)
		c.stats.SubLineAccesses++
		stored := c.channels[ch][rank].ReadLineInto(addr, c.scr.stored[0])
		raw := c.scr.stored[1]
		copy(raw, stored)
		corrected, err := c.decodeRelaxedLineInto(stored, pageData[line*LineBytes:(line+1)*LineBytes])
		c.noteOutcome(corrected, err)
		if err != nil {
			readErr = err
		}
		if corrected == 0 {
			continue
		}
		hits := positionHits[16*(ch%2):]
		for cw := 0; cw < codewordsPerLine; cw++ {
			for pos := 0; pos < dataPerCodeword; pos++ {
				if stored[cw*18+pos] != raw[cw*18+pos] {
					hits[pos]++
				}
			}
		}
	}

	// Choose a spare remap target: the most frequently corrected data
	// position, if the sparing scheme is in use.
	if c.sparing != nil {
		best := 0
		spared := -1
		for pos, n := range positionHits {
			if n > best {
				best, spared = n, pos
			}
		}
		if spared >= 0 {
			c.sparedPos[page] = int32(spared)
		}
	}

	// Flip the mode first so writePairStored encodes in upgraded form.
	c.table.SetMode(page, pagetable.Upgraded)
	c.stats.PageUpgrades++

	for pair := 0; pair < LinesPerPage/2; pair++ {
		c.writePairStored(page, pair, pageData[pair*2*LineBytes:(pair+1)*2*LineBytes])
	}
	return readErr
}

// RelaxPage drops page from upgraded to relaxed mode — the boot-time scrub
// applies this to every fault-free page. The page content is decoded in
// upgraded form and re-encoded per-line in relaxed form, staged in the
// controller's whole-page scratch.
func (c *Controller) RelaxPage(page int) error {
	if c.table.Mode(page) != pagetable.Upgraded {
		panic(fmt.Sprintf("core: RelaxPage on %v page %d", c.table.Mode(page), page))
	}
	var readErr error
	pageData := c.scr.page
	for pair := 0; pair < LinesPerPage/2; pair++ {
		if err := c.readPairInto(page, pair, pageData[pair*2*LineBytes:(pair+1)*2*LineBytes]); err != nil {
			readErr = err
		}
	}
	c.table.SetMode(page, pagetable.Relaxed)
	delete(c.sparedPos, page)
	for line := 0; line < LinesPerPage; line++ {
		ch, slot := c.channelOf(line)
		rank, addr := c.addrOf(page, slot)
		c.stats.SubLineAccesses++
		c.encodeRelaxedLineInto(pageData[line*LineBytes:(line+1)*LineBytes], c.scr.stored[0])
		c.channels[ch][rank].WriteLine(addr, c.scr.stored[0])
	}
	return readErr
}

// RelaxAll drops every upgraded page to relaxed mode. It is the bulk form
// of the boot sequence: start upgraded, populate, then relax everything the
// first scrub finds fault-free. Returns the count of pages relaxed.
func (c *Controller) RelaxAll() int {
	n := 0
	for page := 0; page < c.cfg.Pages; page++ {
		if c.table.Mode(page) == pagetable.Upgraded {
			if err := c.RelaxPage(page); err == nil {
				n++
			}
		}
	}
	return n
}
