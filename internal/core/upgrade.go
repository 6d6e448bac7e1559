package core

import (
	"arcc/internal/pagetable"
)

// UpgradePage raises page from relaxed to upgraded mode (§4.2.1): every
// line of the page is read out (correcting errors on the way), adjacent
// line pairs are joined into 128 B upgraded lines, and the page is written
// back in the stronger layout. Only this page is touched.
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
	c.mustBe("UpgradePage", page, pagetable.Relaxed)
	c.stats.PageUpgrades++
	return c.restripe(page, pagetable.Upgraded)
}

// RelaxPage drops page from upgraded to relaxed mode — the boot-time scrub
// applies this to every fault-free page. The page content is decoded in
// upgraded form and re-encoded per-line in relaxed form.
func (c *Controller) RelaxPage(page int) error {
	c.mustBe("RelaxPage", page, pagetable.Upgraded)
	return c.restripe(page, pagetable.Relaxed)
}

// UpgradePageToStrong raises an Upgraded page to Upgraded8 (§5.1): the
// page's pairs are read out (correcting what the 4-check code still can),
// re-encoded as four-channel quads with eight check symbols, and written
// back. Requires a four-channel controller.
func (c *Controller) UpgradePageToStrong(page int) error {
	if !c.SupportsStrongUpgrade() {
		panic("core: Upgraded8 mode requires a four-channel configuration (§5.1)")
	}
	c.mustBe("UpgradePageToStrong", page, pagetable.Upgraded)
	c.stats.StrongUpgrades++
	return c.restripe(page, pagetable.Upgraded8)
}

// restripe moves page to mode to: every group is read in the page's current
// width (correcting what the old code can) into the whole-page scratch,
// the mode flips, and every group is encoded and written in the new width,
// so the transition does not allocate. A DUE on the way is returned after
// the page is rewritten with the raw content.
//
// Leaving relaxed mode under the sparing code, it also votes on the spare:
// each relaxed line whose decode repaired something is read raw again, and
// each data symbol the decode changed counts for its position in the
// upgraded codeword (data from an even channel occupies positions 0..15,
// from an odd one 16..31; the decoder never reports a zero-magnitude
// correction, and DUE codewords stay raw). The most frequently repaired
// position, if any, is remapped to the spare.
func (c *Controller) restripe(page int, to pagetable.Mode) error {
	from := c.stripeOf(page)
	vote := c.sparing != nil && from.w == 1
	clear(c.scr.posHits[:])
	var readErr error
	for g := 0; g < LinesPerPage/from.w; g++ {
		batch, corrected, err := c.readGroup(page, g, from)
		if err != nil {
			readErr = err
		}
		payload(batch, from.w, 0, c.scr.page[g*from.w*LineBytes:(g+1)*from.w*LineBytes])
		if vote && corrected > 0 {
			raw := c.RawReadInto(page, g, c.scr.stored[1])
			hits := c.scr.posHits[16*(g%2):]
			for cw := 0; cw < codewordsPerLine; cw++ {
				for pos := 0; pos < dataPerCodeword; pos++ {
					if batch[cw*18+pos] != raw[cw*18+pos] {
						hits[pos]++
					}
				}
			}
		}
	}
	delete(c.sparedPos, page)
	if vote {
		best, spared := 0, -1
		for pos, n := range c.scr.posHits {
			if n > best {
				best, spared = n, pos
			}
		}
		if spared >= 0 {
			c.sparedPos[page] = int32(spared)
		}
	}
	c.table.SetMode(page, to)
	s := &c.stripes[to]
	for g := 0; g < LinesPerPage/s.w; g++ {
		c.writeGroup(page, g, s, c.scr.page[g*s.w*LineBytes:(g+1)*s.w*LineBytes])
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
