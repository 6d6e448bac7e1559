package core

import (
	"fmt"

	"arcc/internal/pagetable"
)

// pairChannels returns the two channels and the shared slot holding
// upgraded pair p (lines 2p and 2p+1).
func (c *Controller) pairChannels(pair int) (chX, chY, slot int) {
	line := 2 * pair
	chX, slot = c.channelOf(line)
	return chX, chX + 1, slot
}

// ReadLine serves a 64 B line read, returning the data in a fresh slice.
// For relaxed pages it touches one channel (18 devices); for upgraded pages
// it reads the line's pair from two channels in lockstep (36 devices); for
// upgraded8 pages it reads the line's quad from four channels (72 devices).
// The returned error is ErrUncorrectable for DUEs; the data is then raw and
// untrusted. ReadLine is a compatibility wrapper over ReadLineInto.
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
	switch c.table.Mode(page) {
	case pagetable.Relaxed:
		ch, slot := c.channelOf(line)
		rank, addr := c.addrOf(page, slot)
		c.stats.SubLineAccesses++
		stored := c.channels[ch][rank].ReadLineInto(addr, c.scr.stored[0])
		corrected, err := c.decodeRelaxedLineInto(stored, data)
		c.noteOutcome(corrected, err)
		return err
	case pagetable.Upgraded:
		pair := c.scr.data[:2*LineBytes]
		err := c.readPairInto(page, line/2, pair)
		if line%2 == 0 {
			copy(data, pair[:LineBytes])
		} else {
			copy(data, pair[LineBytes:])
		}
		return err
	case pagetable.Upgraded8:
		quad := c.scr.data[:4*LineBytes]
		err := c.readQuadInto(page, line/4, quad)
		off := (line % 4) * LineBytes
		copy(data, quad[off:off+LineBytes])
		return err
	default:
		panic(fmt.Sprintf("core: page %d in unsupported mode %v", page, c.table.Mode(page)))
	}
}

// ReadPairInto reads upgraded pair p (lines 2p and 2p+1) of page into a
// caller-owned 128 B buffer. Two channels are accessed in lockstep. The
// returned error is ErrUncorrectable for DUEs. It performs no heap
// allocations.
func (c *Controller) ReadPairInto(page, pair int, data []byte) error {
	if len(data) != 2*LineBytes {
		panic(fmt.Sprintf("core: ReadPairInto with %d bytes, want %d", len(data), 2*LineBytes))
	}
	return c.readPairInto(page, pair, data)
}

// readPairInto is ReadPairInto without the length check (internal callers
// pass scratch slices of the right size).
func (c *Controller) readPairInto(page, pair int, data []byte) error {
	if c.table.Mode(page) != pagetable.Upgraded {
		panic(fmt.Sprintf("core: ReadPairInto on %v page %d", c.table.Mode(page), page))
	}
	chX, chY, slot := c.pairChannels(pair)
	rank, addr := c.addrOf(page, slot)
	c.stats.SubLineAccesses += 2
	storedX := c.channels[chX][rank].ReadLineInto(addr, c.scr.stored[0])
	storedY := c.channels[chY][rank].ReadLineInto(addr, c.scr.stored[1])
	corrected, err := c.decodeUpgradedPairInto(storedX, storedY, c.sparedPosOf(page), data)
	c.noteOutcome(corrected, err)
	return err
}

// WriteLine serves a 64 B line write. For relaxed pages the line is encoded
// and stored in its channel. For upgraded/upgraded8 pages the partner
// sub-lines must be merged so all check symbols per codeword stay
// consistent: the controller performs the read-modify-write that the LLC
// normally avoids by writing back whole pairs (use WritePair for that path).
// It performs no heap allocations.
func (c *Controller) WriteLine(page, line int, data []byte) error {
	if len(data) != LineBytes {
		panic(fmt.Sprintf("core: WriteLine with %d bytes, want %d", len(data), LineBytes))
	}
	c.stats.Writes++
	switch c.table.Mode(page) {
	case pagetable.Relaxed:
		ch, slot := c.channelOf(line)
		rank, addr := c.addrOf(page, slot)
		c.stats.SubLineAccesses++
		c.encodeRelaxedLineInto(data, c.scr.stored[0])
		c.channels[ch][rank].WriteLine(addr, c.scr.stored[0])
		return nil
	case pagetable.Upgraded:
		pair := line / 2
		current := c.scr.data[:2*LineBytes]
		if err := c.readPairInto(page, pair, current); err != nil {
			return err
		}
		if line%2 == 0 {
			copy(current[:LineBytes], data)
		} else {
			copy(current[LineBytes:], data)
		}
		c.writePairStored(page, pair, current)
		return nil
	case pagetable.Upgraded8:
		quad := line / 4
		current := c.scr.data[:4*LineBytes]
		if err := c.readQuadInto(page, quad, current); err != nil {
			return err
		}
		off := (line % 4) * LineBytes
		copy(current[off:off+LineBytes], data)
		c.writeQuadStored(page, quad, current)
		return nil
	default:
		panic(fmt.Sprintf("core: page %d in unsupported mode %v", page, c.table.Mode(page)))
	}
}

// WritePair writes back a full 128 B upgraded pair — the efficient path the
// modified LLC uses when evicting both sub-lines together (§4.2.3).
func (c *Controller) WritePair(page, pair int, data []byte) {
	if len(data) != 2*LineBytes {
		panic(fmt.Sprintf("core: WritePair with %d bytes, want %d", len(data), 2*LineBytes))
	}
	if c.table.Mode(page) != pagetable.Upgraded {
		panic(fmt.Sprintf("core: WritePair on %v page %d", c.table.Mode(page), page))
	}
	c.stats.Writes += 2
	c.writePairStored(page, pair, data)
}

func (c *Controller) writePairStored(page, pair int, data []byte) {
	chX, chY, slot := c.pairChannels(pair)
	rank, addr := c.addrOf(page, slot)
	storedX, storedY := c.scr.stored[2], c.scr.stored[3]
	c.encodeUpgradedPairInto(data, c.sparedPosOf(page), storedX, storedY)
	c.stats.SubLineAccesses += 2
	c.channels[chX][rank].WriteLine(addr, storedX)
	c.channels[chY][rank].WriteLine(addr, storedY)
}

func (c *Controller) sparedPosOf(page int) int {
	if pos, ok := c.sparedPos[page]; ok {
		return int(pos)
	}
	return -1
}

func (c *Controller) noteOutcome(corrected int, err error) {
	c.stats.Corrected += int64(corrected)
	if err != nil {
		c.stats.DUEs++
	}
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

// CorrectLine decodes the ECC context covering line (the line itself when
// relaxed, its pair/quad when upgraded), writes the corrected content back,
// and reports how many symbols were repaired. ErrUncorrectable reports a
// DUE; the stored content is left as-is in that case. It performs no heap
// allocations.
func (c *Controller) CorrectLine(page, line int) (corrected int, err error) {
	switch c.table.Mode(page) {
	case pagetable.Relaxed:
		ch, slot := c.channelOf(line)
		rank, addr := c.addrOf(page, slot)
		stored := c.channels[ch][rank].ReadLineInto(addr, c.scr.stored[0])
		data := c.scr.data[:LineBytes]
		n, derr := c.decodeRelaxedLineInto(stored, data)
		if derr != nil {
			c.stats.DUEs++
			return n, derr
		}
		if n > 0 {
			c.encodeRelaxedLineInto(data, stored)
			c.channels[ch][rank].WriteLine(addr, stored)
			c.stats.Corrected += int64(n)
		}
		return n, nil
	case pagetable.Upgraded:
		pair := line / 2
		chX, chY, slot := c.pairChannels(pair)
		rank, addr := c.addrOf(page, slot)
		storedX := c.channels[chX][rank].ReadLineInto(addr, c.scr.stored[0])
		storedY := c.channels[chY][rank].ReadLineInto(addr, c.scr.stored[1])
		data := c.scr.data[:2*LineBytes]
		n, derr := c.decodeUpgradedPairInto(storedX, storedY, c.sparedPosOf(page), data)
		if derr != nil {
			c.stats.DUEs++
			return n, derr
		}
		if n > 0 {
			c.writePairStored(page, pair, data)
			c.stats.Corrected += int64(n)
		}
		return n, nil
	case pagetable.Upgraded8:
		quad := line / 4
		stored := c.readQuadStored(page, quad)
		data := c.scr.data[:4*LineBytes]
		n, derr := c.decodeQuadInto(stored, data)
		if derr != nil {
			c.stats.DUEs++
			return n, derr
		}
		if n > 0 {
			c.writeQuadStored(page, quad, data)
			c.stats.Corrected += int64(n)
		}
		return n, nil
	default:
		panic(fmt.Sprintf("core: page %d in unsupported mode %v", page, c.table.Mode(page)))
	}
}
