package ecc

import (
	"fmt"

	"arcc/internal/rs"
)

// DoubleChipSparing models the second commercial chipkill solution of Ch. 2:
// a 36-symbol codeword with 32 data symbols, 3 check symbols, and 1 spare
// symbol. The efficient 3-check encoding provides single symbol correct +
// double symbol detect; when a bad symbol is detected its device position is
// remapped to the spare, after which a *second* bad symbol can still be
// corrected — as long as it appears after the first was detected.
//
// Sparing state (which position has been remapped) belongs to the rank, not
// the code, so it is passed explicitly to EncodeSparedInto and
// DecodeSparedBatchInto. The Scheme methods EncodeInto and DecodeBatchInto
// work with no position spared.
type DoubleChipSparing struct {
	code *rs.Code // (36, 33): 33 payload symbols (32 data + spare slot), 3 check
}

// NewDoubleChipSparing constructs the scheme.
func NewDoubleChipSparing() *DoubleChipSparing {
	// Layout: positions 0..31 data, position 32 spare, positions 33..35 the
	// three check symbols. The spare participates in the code as a payload
	// symbol so its contents are protected once it is put to use.
	return &DoubleChipSparing{code: rs.New(36, 33)}
}

// Name implements Scheme.
func (s *DoubleChipSparing) Name() string { return "double-chip-sparing" }

// DataSymbols implements Scheme: 32 true data symbols per codeword.
func (s *DoubleChipSparing) DataSymbols() int { return 32 }

// TotalSymbols implements Scheme.
func (s *DoubleChipSparing) TotalSymbols() int { return 36 }

// CheckSymbols implements Scheme: three true check symbols (the fourth
// redundant device holds the spare).
func (s *DoubleChipSparing) CheckSymbols() int { return 3 }

// GuaranteedDetect implements Scheme.
func (s *DoubleChipSparing) GuaranteedDetect() int { return 2 }

// SparePosition is the codeword position of the spare symbol.
const SparePosition = 32

// EncodeInto implements Scheme: cw[0:32] hold the data; the spare (position
// 32) is set to zero and the check symbols are overwritten in place.
func (s *DoubleChipSparing) EncodeInto(cw []byte) { s.EncodeSparedInto(cw, -1) }

// EncodeSparedInto encodes a codeword whose sparedPos (-1 for none) has
// been remapped, in place: cw[0:32] hold the data laid out at their natural
// positions. The symbol that would live at sparedPos is moved to the spare
// position and the dead position carries zero; then the check symbols are
// computed. It performs no heap allocations.
func (s *DoubleChipSparing) EncodeSparedInto(cw []byte, sparedPos int) {
	if len(cw) != 36 {
		panic(fmt.Sprintf("ecc: sparing EncodeInto with %d symbols, want 36", len(cw)))
	}
	if sparedPos >= 32 {
		panic(fmt.Sprintf("ecc: cannot spare non-data position %d", sparedPos))
	}
	if sparedPos < 0 {
		cw[SparePosition] = 0
	} else {
		cw[SparePosition] = cw[sparedPos]
		cw[sparedPos] = 0
	}
	s.code.EncodeInto(cw)
}

// DecodeBatchInto implements Scheme, batch-decoding with no spared position.
func (s *DoubleChipSparing) DecodeBatchInto(buf []byte, stride, count int, scr *Scratch) (int, error) {
	return s.DecodeSparedBatchInto(buf, stride, count, -1, scr)
}

// DecodeSparedBatchInto decodes a flat batch of codewords in which
// sparedPos (-1 for none) has been remapped to the spare, in place:
// codeword i occupies buf[i*stride : i*stride+36]. The dead position is
// treated as an erasure, which leaves enough redundancy to correct one
// additional unknown bad symbol — the "second chipkill" the scheme is
// named for. On return each good codeword's first 32 symbols hold the
// recovered data — for spared codewords the spare symbol is un-remapped
// back over the dead position, so the lane no longer reads as a valid
// stored codeword — while uncorrectable codewords keep their raw content
// (no un-remap: the raw symbols are untrusted either way). Returns the
// total repaired-symbol count plus ErrDetected if any codeword was
// uncorrectable. Zero heap allocations in steady state; the all-clean batch
// never runs the scalar decoder.
func (s *DoubleChipSparing) DecodeSparedBatchInto(buf []byte, stride, count, sparedPos int, scr *Scratch) (int, error) {
	if sparedPos >= 32 {
		panic(fmt.Sprintf("ecc: cannot spare non-data position %d", sparedPos))
	}
	var erasures []int
	if sparedPos >= 0 {
		// One erasure (the dead device) + up to one unknown error uses
		// exactly the three check symbols: 2*1 + 1 = 3.
		scr.erasure[0] = sparedPos
		erasures = scr.erasure[:]
	}
	res := s.code.DecodeBatchFlat(buf, stride, count, erasures, 1, scr.rs)
	if sparedPos >= 0 {
		// Un-remap the good lanes: the symbol the dead device would have
		// held lives in the spare position. res.Bad is ascending, so one
		// cursor walks it in step with the lane loop.
		bi := 0
		for i := 0; i < count; i++ {
			if bi < len(res.Bad) && res.Bad[bi] == i {
				bi++
				continue
			}
			lane := buf[i*stride:]
			lane[sparedPos] = lane[SparePosition]
		}
	}
	if !res.OK() {
		return res.Corrected, ErrDetected
	}
	return res.Corrected, nil
}

// NewScratch implements Scheme.
func (s *DoubleChipSparing) NewScratch() *Scratch {
	return &Scratch{rs: s.code.NewScratch()}
}

var _ Scheme = (*DoubleChipSparing)(nil)
