package core

import (
	"fmt"
)

// This file owns the Fig. 4.1 codeword layouts.
//
// Relaxed line (one channel, 72 stored bytes, beat-major):
//
//	beat c (18 symbols) = codeword c = [ d[16c] .. d[16c+15] | chk0 chk1 ]
//
// Upgraded line pair (both channels, 72 stored bytes per channel):
//
//	codeword c (36 symbols) =
//	    [ X-data d[16c]..d[16c+15] | Y-data d[16c]..d[16c+15] | r0 r1 r2 r3 ]
//	channel X beat c stores symbols {0..15, 32, 33}
//	channel Y beat c stores symbols {16..31, 34, 35}
//
// so each stored symbol still maps to its own device in its own channel and
// a whole-device fault corrupts exactly one symbol of each codeword.
//
// Every encode/decode below runs against the controller's scratch (one ECC
// workspace per scheme, one codeword assembly buffer) and caller-owned
// stored/data buffers, so the steady-state data path never allocates.

// storedLineBytes is the per-channel stored size of one line: 4 beats x 18
// symbols (64 data bytes + 8 redundant bytes).
const storedLineBytes = codewordsPerLine * 18

// encodeRelaxedLineInto encodes 64 data bytes into the 72-byte stored
// format, written into out (length storedLineBytes).
func (c *Controller) encodeRelaxedLineInto(data, out []byte) {
	if len(data) != LineBytes {
		panic(fmt.Sprintf("core: relaxed encode with %d bytes, want %d", len(data), LineBytes))
	}
	if len(out) != storedLineBytes {
		panic(fmt.Sprintf("core: relaxed encode into %d bytes, want %d", len(out), storedLineBytes))
	}
	for cw := 0; cw < codewordsPerLine; cw++ {
		stored := out[cw*18 : (cw+1)*18]
		copy(stored, data[cw*dataPerCodeword:(cw+1)*dataPerCodeword])
		c.relaxed.EncodeInto(stored)
	}
}

// decodeRelaxedLineInto decodes a 72-byte stored line into the 64-byte data
// buffer, reporting the corrected symbol count. A detected uncorrectable
// pattern returns ErrUncorrectable with the raw (untrusted) data symbols
// copied through for the affected codewords.
//
// The stored line IS a flat batch — four beat-major codewords at stride
// 18 — so it decodes in place as one batch (stored is the controller's
// read scratch, never live device state) and the data symbols copy
// straight out: corrected for repaired codewords, raw for DUEs.
func (c *Controller) decodeRelaxedLineInto(stored, data []byte) (corrected int, err error) {
	if len(stored) != storedLineBytes {
		panic(fmt.Sprintf("core: relaxed decode with %d bytes, want %d", len(stored), storedLineBytes))
	}
	corrected, derr := c.relaxed.DecodeBatchInto(stored, 18, codewordsPerLine, c.scr.relaxed)
	if derr != nil {
		err = ErrUncorrectable
	}
	for cw := 0; cw < codewordsPerLine; cw++ {
		copy(data[cw*dataPerCodeword:], stored[cw*18:cw*18+dataPerCodeword])
	}
	return corrected, err
}

// encodeUpgradedPairInto encodes 128 data bytes (sub-line X ++ sub-line Y)
// into the two 72-byte stored sub-line buffers. sparedPos is the codeword
// position remapped to the spare for sparing pages, or -1.
func (c *Controller) encodeUpgradedPairInto(data []byte, sparedPos int, storedX, storedY []byte) {
	if len(data) != 2*LineBytes {
		panic(fmt.Sprintf("core: upgraded encode with %d bytes, want %d", len(data), 2*LineBytes))
	}
	if len(storedX) != storedLineBytes || len(storedY) != storedLineBytes {
		panic("core: upgraded encode into wrong stored sizes")
	}
	full := c.scr.full[:36]
	for cw := 0; cw < codewordsPerLine; cw++ {
		copy(full[0:16], data[cw*16:cw*16+16])        // X half
		copy(full[16:32], data[64+cw*16:64+cw*16+16]) // Y half
		if c.sparing != nil {
			c.sparing.EncodeSparedInto(full, sparedPos)
		} else {
			c.upgraded.EncodeInto(full)
		}
		// Scatter: X gets symbols 0..15 and 32, 33; Y gets 16..31, 34, 35.
		copy(storedX[cw*18:], full[0:16])
		storedX[cw*18+16] = full[32]
		storedX[cw*18+17] = full[33]
		copy(storedY[cw*18:], full[16:32])
		storedY[cw*18+16] = full[34]
		storedY[cw*18+17] = full[35]
	}
}

// decodeUpgradedPairInto decodes the two stored sub-lines into the 128-byte
// data buffer, reporting the corrected symbol count.
//
// The four 36-symbol codewords are gathered into the controller's flat
// batch buffer (stride 36) and decoded together: the all-clean access —
// every read of a fault-free pair — never leaves the batch remainder
// check. After the in-place batch decode each good lane's first
// 32 symbols hold the recovered data (the sparing scheme un-remaps its
// spare in the batch call) and DUE lanes hold the raw gathered symbols, so
// one uniform scatter writes the data buffer either way.
func (c *Controller) decodeUpgradedPairInto(storedX, storedY []byte, sparedPos int, data []byte) (corrected int, err error) {
	if len(storedX) != storedLineBytes || len(storedY) != storedLineBytes {
		panic("core: upgraded decode with wrong stored sizes")
	}
	batch := c.scr.batch[:codewordsPerLine*36]
	for cw := 0; cw < codewordsPerLine; cw++ {
		full := batch[cw*36 : (cw+1)*36]
		copy(full[0:16], storedX[cw*18:cw*18+16])
		full[32] = storedX[cw*18+16]
		full[33] = storedX[cw*18+17]
		copy(full[16:32], storedY[cw*18:cw*18+16])
		full[34] = storedY[cw*18+16]
		full[35] = storedY[cw*18+17]
	}
	var derr error
	if c.sparing != nil {
		corrected, derr = c.sparing.DecodeSparedBatchInto(batch, 36, codewordsPerLine, sparedPos, c.scr.upgraded)
	} else {
		corrected, derr = c.upgraded.DecodeBatchInto(batch, 36, codewordsPerLine, c.scr.upgraded)
	}
	if derr != nil {
		err = ErrUncorrectable
	}
	for cw := 0; cw < codewordsPerLine; cw++ {
		full := batch[cw*36 : (cw+1)*36]
		copy(data[cw*16:], full[0:16])
		copy(data[64+cw*16:], full[16:32])
	}
	return corrected, err
}
