package core

import (
	"fmt"

	"arcc/internal/dram"
	"arcc/internal/pagetable"
)

// This file owns the Fig. 4.1 codeword layout, one stripe rule for every
// page mode. A page in a mode of width w (relaxed 1, upgraded 2, upgraded8
// 4) is split into groups of w lines: group g holds lines wg .. wg+w-1,
// one slot in w adjacent channels. Channel k of the group stores 72 bytes,
// beat-major; beat c holds, of codeword c (18w symbols),
//
//	data symbols  16k .. 16k+15  (its line's bytes 16c .. 16c+15)
//	check symbols 16w+2k, 16w+2k+1
//
// so the relaxed codeword is [ data | chk0 chk1 ], the upgraded pair's is
// [ X data | Y data | r0 r1 | r2 r3 ] with X storing r0 r1 (the sparing
// code's spare is r0, symbol 32), and the upgraded8 quad's is
// [ ch0 .. ch3 data | r0 .. r7 ]. Every stored symbol owns its device, so a
// whole-device fault corrupts exactly one symbol of each codeword.
//
// Every encode and decode runs against the controller's scratch (one ECC
// workspace per mode, one batch buffer that gathers a group for decode and
// assembles its codewords for encode), so the steady-state data path never
// allocates.

// storedLineBytes is the per-channel stored size of one line: 4 beats x 18
// symbols (64 data bytes + 8 redundant bytes).
const storedLineBytes = codewordsPerLine * 18

// stripeOf returns the stripe of page's current mode.
func (c *Controller) stripeOf(page int) *stripe { return &c.stripes[c.table.Mode(page)] }

// mustBe panics unless page is in mode m; op names the caller.
func (c *Controller) mustBe(op string, page int, m pagetable.Mode) {
	if got := c.table.Mode(page); got != m {
		panic(fmt.Sprintf("core: %s on %v page %d", op, got, page))
	}
}

// groupAt returns the channel of sub-line 0 of group g of width w, and the
// rank and in-rank address every sub-line of the group shares.
func (c *Controller) groupAt(page, g, w int) (ch0, rank int, a dram.Addr) {
	ch0, slot := c.channelOf(g * w)
	rank, a = c.addrOf(page, slot)
	return ch0, rank, a
}

// decodeGroup reads group g of page in stripe s and decodes its four
// codewords in place as one batch, returning the batch (stride 18w) and
// the repaired-symbol count. A good codeword's data symbols then hold the
// recovered data (the sparing code un-remaps its spare); a DUE codeword
// keeps its raw symbols and the error is ErrUncorrectable. A one-channel
// group's stored sub-line already is its batch and decodes where it was
// read; wider groups are gathered into the batch buffer. It counts nothing.
func (c *Controller) decodeGroup(page, g int, s *stripe) (batch []byte, corrected int, err error) {
	ch0, rank, a := c.groupAt(page, g, s.w)
	for k, stored := range c.scr.stored[:s.w] {
		c.channels[ch0+k][rank].ReadLineInto(a, stored)
	}
	n := 18 * s.w
	batch = c.scr.stored[0]
	if s.w > 1 {
		batch = c.scr.batch[:codewordsPerLine*n]
		for k, stored := range c.scr.stored[:s.w] {
			data, chk := 16*k, 16*s.w+2*k
			for cw := 0; cw < codewordsPerLine; cw++ {
				full, beat := batch[cw*n:(cw+1)*n], stored[cw*18:(cw+1)*18]
				copy16(full[data:], beat)
				full[chk], full[chk+1] = beat[16], beat[17]
			}
		}
	}
	var derr error
	if sp := c.sparedPosOf(page); sp >= 0 {
		corrected, derr = c.sparing.DecodeSparedBatchInto(batch, n, codewordsPerLine, sp, s.scr)
	} else {
		corrected, derr = s.code.DecodeBatchInto(batch, n, codewordsPerLine, s.scr)
	}
	if derr != nil {
		err = ErrUncorrectable
	}
	return batch, corrected, err
}

// readGroup is decodeGroup counting the access: w sub-lines, the repaired
// symbols, and a DUE.
func (c *Controller) readGroup(page, g int, s *stripe) (batch []byte, corrected int, err error) {
	batch, corrected, err = c.decodeGroup(page, g, s)
	c.stats.SubLineAccesses += int64(s.w)
	c.stats.Corrected += int64(corrected)
	if err != nil {
		c.stats.DUEs++
	}
	return batch, corrected, err
}

// payload copies sub-lines k, k+1, ... of a decoded width-w batch into data,
// one 64 B line each, until data is full.
func payload(batch []byte, w, k int, data []byte) {
	n := 18 * w
	for j := 0; j*LineBytes < len(data); j++ {
		line := data[j*LineBytes : (j+1)*LineBytes]
		for cw := 0; cw < codewordsPerLine; cw++ {
			copy16(line[cw*dataPerCodeword:], batch[cw*n+16*(k+j):])
		}
	}
}

// storeGroup encodes the w*64 B payload data as group g of page in stripe
// s and writes its w sub-lines. It counts nothing.
func (c *Controller) storeGroup(page, g int, s *stripe, data []byte) {
	ch0, rank, a := c.groupAt(page, g, s.w)
	sp := c.sparedPosOf(page)
	for cw := 0; cw < codewordsPerLine; cw++ {
		full := c.scr.batch[:18*s.w]
		if s.w == 1 {
			full = c.scr.stored[0][cw*18 : (cw+1)*18] // encode in place
		}
		for k := 0; k < s.w; k++ {
			copy16(full[16*k:], data[k*LineBytes+cw*dataPerCodeword:])
		}
		if sp >= 0 {
			c.sparing.EncodeSparedInto(full, sp)
		} else {
			s.code.EncodeInto(full)
		}
		if s.w == 1 {
			continue
		}
		chk := full[16*s.w:]
		for k, stored := range c.scr.stored[:s.w] {
			beat := stored[cw*18 : (cw+1)*18]
			copy16(beat, full[16*k:])
			beat[16], beat[17] = chk[2*k], chk[2*k+1]
		}
	}
	for k := 0; k < s.w; k++ {
		c.channels[ch0+k][rank].WriteLine(a, c.scr.stored[k])
	}
}

// copy16 copies one channel's 16 data symbols of a codeword as a single
// fixed-size move.
func copy16(dst, src []byte) {
	*(*[dataPerCodeword]byte)(dst) = [dataPerCodeword]byte(src[:dataPerCodeword])
}

// writeGroup is storeGroup counting its w sub-line accesses.
func (c *Controller) writeGroup(page, g int, s *stripe, data []byte) {
	c.stats.SubLineAccesses += int64(s.w)
	c.storeGroup(page, g, s, data)
}

// sparedPosOf returns page's spared codeword position, or -1.
func (c *Controller) sparedPosOf(page int) int {
	if c.sparing != nil {
		if pos, ok := c.sparedPos[page]; ok {
			return int(pos)
		}
	}
	return -1
}
