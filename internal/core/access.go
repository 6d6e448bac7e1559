package core

import (
	"fmt"

	"arcc/internal/pagetable"
)

// ReadLine serves a 64 B line read, returning the data in a fresh slice.
// It reads the line's whole group: one channel (18 devices) on a relaxed
// page, the line's pair from two channels in lockstep (36 devices) on an
// upgraded page, and the line's quad from four channels (72 devices) on an
// upgraded8 page. The returned error is ErrUncorrectable for DUEs; the
// data is then raw and untrusted. ReadLine is a compatibility wrapper over
// ReadLineInto.
func (c *Controller) ReadLine(page, line int) ([]byte, error) {
	data := make([]byte, LineBytes)
	err := c.ReadLineInto(page, line, data)
	return data, err
}

// ReadLineInto is ReadLine with a caller-owned 64 B buffer: the decode runs
// against the controller's scratch and performs no heap allocations.
func (c *Controller) ReadLineInto(page, line int, data []byte) error {
	if len(data) != LineBytes {
		panic(fmt.Sprintf("core: ReadLineInto with %d bytes, want %d", len(data), LineBytes))
	}
	c.stats.Reads++
	s := c.stripeOf(page)
	batch, _, err := c.readGroup(page, line/s.w, s)
	payload(batch, s.w, line%s.w, data)
	return err
}

// ReadPairInto reads upgraded pair p (lines 2p and 2p+1) of page into a
// caller-owned 128 B buffer. Two channels are accessed in lockstep. The
// returned error is ErrUncorrectable for DUEs. It performs no heap
// allocations.
func (c *Controller) ReadPairInto(page, pair int, data []byte) error {
	return c.readWholeGroup("ReadPairInto", page, pair, pagetable.Upgraded, data)
}

// ReadQuadInto reads upgraded8 quad q (lines 4q..4q+3) of page into a
// caller-owned 256 B buffer. All four channels are accessed in lockstep.
// The returned error is ErrUncorrectable for DUEs. It performs no heap
// allocations.
func (c *Controller) ReadQuadInto(page, quad int, data []byte) error {
	return c.readWholeGroup("ReadQuadInto", page, quad, pagetable.Upgraded8, data)
}

// readWholeGroup reads group g of a page that must be in mode m into data,
// which must hold the whole group. Unlike ReadLineInto it counts no Reads.
func (c *Controller) readWholeGroup(op string, page, g int, m pagetable.Mode, data []byte) error {
	s := &c.stripes[m]
	if len(data) != s.w*LineBytes {
		panic(fmt.Sprintf("core: %s with %d bytes, want %d", op, len(data), s.w*LineBytes))
	}
	c.mustBe(op, page, m)
	batch, _, err := c.readGroup(page, g, s)
	payload(batch, s.w, 0, data)
	return err
}

// WriteLine serves a 64 B line write. On a relaxed page the line is encoded
// and stored in its channel. On upgraded/upgraded8 pages the partner
// sub-lines must be merged so all check symbols per codeword stay
// consistent: the controller performs the read-modify-write that the LLC
// normally avoids by writing back whole pairs (use WritePair for that path).
// A DUE on that read is returned and nothing is written. It performs no
// heap allocations.
func (c *Controller) WriteLine(page, line int, data []byte) error {
	if len(data) != LineBytes {
		panic(fmt.Sprintf("core: WriteLine with %d bytes, want %d", len(data), LineBytes))
	}
	c.stats.Writes++
	s := c.stripeOf(page)
	g, group := line/s.w, data
	if s.w > 1 {
		batch, _, err := c.readGroup(page, g, s)
		if err != nil {
			return err
		}
		group = c.scr.data[:s.w*LineBytes]
		payload(batch, s.w, 0, group)
		copy(group[line%s.w*LineBytes:], data)
	}
	c.writeGroup(page, g, s, group)
	return nil
}

// WritePair writes back a full 128 B upgraded pair — the efficient path the
// modified LLC uses when evicting both sub-lines together (§4.2.3).
func (c *Controller) WritePair(page, pair int, data []byte) {
	s := &c.stripes[pagetable.Upgraded]
	if len(data) != s.w*LineBytes {
		panic(fmt.Sprintf("core: WritePair with %d bytes, want %d", len(data), s.w*LineBytes))
	}
	c.mustBe("WritePair", page, pagetable.Upgraded)
	c.stats.Writes += 2
	c.writeGroup(page, pair, s, data)
}

// RawReadInto returns the 72 stored bytes of one sub-line as the devices
// return them (fault corruption applied, no ECC), in the caller-owned
// buffer raw, which is overwritten and returned. The scrubber's pattern
// tests use this primitive. It performs no heap allocations.
func (c *Controller) RawReadInto(page, line int, raw []byte) []byte {
	ch, slot := c.channelOf(line)
	rank, addr := c.addrOf(page, slot)
	return c.channels[ch][rank].ReadLineInto(addr, raw)
}

// RawWrite stores 72 raw bytes into one sub-line, bypassing ECC encode. Only
// the scrubber's pattern tests should use it.
func (c *Controller) RawWrite(page, line int, raw []byte) {
	if len(raw) != storedLineBytes {
		panic(fmt.Sprintf("core: RawWrite with %d bytes, want %d", len(raw), storedLineBytes))
	}
	ch, slot := c.channelOf(line)
	rank, addr := c.addrOf(page, slot)
	c.channels[ch][rank].WriteLine(addr, raw)
}

// CorrectLine decodes the group covering line (the line itself when
// relaxed, its pair/quad when upgraded), writes the corrected content back,
// and reports how many symbols were repaired. ErrUncorrectable reports a
// DUE; the stored content is left as-is in that case and Corrected does
// not count the DUE's repairs. It counts its group read as sub-line
// accesses only on upgraded8 pages, and its write-back only on upgraded
// and upgraded8 pages (see Stats.SubLineAccesses). It performs no heap
// allocations.
func (c *Controller) CorrectLine(page, line int) (corrected int, err error) {
	s := c.stripeOf(page)
	g := line / s.w
	batch, n, err := c.decodeGroup(page, g, s)
	if s.w == 4 {
		c.stats.SubLineAccesses += 4
	}
	if err != nil {
		c.stats.DUEs++
		return n, err
	}
	if n > 0 {
		group := c.scr.data[:s.w*LineBytes]
		payload(batch, s.w, 0, group)
		c.storeGroup(page, g, s, group)
		if s.w > 1 {
			c.stats.SubLineAccesses += int64(s.w)
		}
		c.stats.Corrected += int64(n)
	}
	return n, nil
}
