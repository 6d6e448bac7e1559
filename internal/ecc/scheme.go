// Package ecc implements the chipkill-correct ECC schemes that ARCC builds
// on and compares against.
//
// Each scheme protects one codeword whose symbols map one-to-one onto DRAM
// devices in a rank (package dram owns that mapping). The schemes are:
//
//   - Relaxed: 2 check symbols per codeword (the weak, low-power mode ARCC
//     uses for fault-free pages): corrects one bad symbol, guarantees
//     detection of one bad symbol only.
//   - SCCDCD: commercial single chipkill correct double chipkill detect,
//     4 check symbols: corrects one bad symbol, guarantees detection of two.
//   - DoubleChipSparing: 3 check symbols + 1 spare symbol; corrects a second
//     bad symbol provided the first was detected (and remapped to the spare)
//     beforehand.
//   - EightCheck: the §5.1 extension with 8 check symbols across four
//     channels, enabling a second upgrade level.
//
// All schemes use 8-bit symbols so that one symbol per beat comes from each
// x8 device (or two beats of an x4 device), matching Table 7.1, and at most
// eight check symbols, so every encode and every clean-read check is
// package rs's one-word remainder recurrence: one table lookup per symbol,
// whichever scheme.
package ecc

import (
	"errors"

	"arcc/internal/rs"
)

// ErrDetected reports an error pattern that the scheme detected but could
// not correct — a DUE (detectable uncorrectable error) in memory terms.
var ErrDetected = errors.New("ecc: detected uncorrectable error")

// Scheme is one chipkill-correct code configuration. Implementations are
// stateless and safe for concurrent use; sparing state is carried explicitly
// by the caller (see DoubleChipSparing), and decode working memory by the
// scheme-specific Scratch.
type Scheme interface {
	// Name identifies the scheme in experiment output.
	Name() string
	// DataSymbols is the number of data symbols per codeword (K).
	DataSymbols() int
	// TotalSymbols is the codeword length in symbols (N); it equals the
	// number of devices the codeword is striped across.
	TotalSymbols() int
	// CheckSymbols is N - K.
	CheckSymbols() int
	// GuaranteedDetect is the number of bad symbols whose detection the
	// scheme guarantees (the paper's reliability discussion, Ch. 2 & 6).
	GuaranteedDetect() int
	// EncodeInto computes the codeword in place: cw has TotalSymbols
	// symbols of which the first DataSymbols hold the data; every other
	// symbol (check symbols, and the sparing scheme's spare) is
	// overwritten. It performs no heap allocations.
	EncodeInto(cw []byte)
	// DecodeBatchInto decodes count codewords laid out in buf at the given
	// stride (codeword i at buf[i*stride : i*stride+TotalSymbols]), IN
	// PLACE, against a reusable workspace from this scheme's NewScratch.
	// It is the scheme's only decoder: the memory controller decodes every
	// access — a line's four codewords, a pair's, a quad's — as one batch.
	// On return every successfully decoded codeword's data symbols hold the
	// recovered data at their natural positions (schemes with a non-prefix
	// layout un-remap in place); codewords with detected-uncorrectable
	// patterns keep their raw content. It returns the total number of
	// symbol positions repaired across the batch, plus ErrDetected if any
	// codeword was uncorrectable. Error patterns beyond GuaranteedDetect
	// bad symbols may silently corrupt data (SDC) — quantifying that risk
	// is the job of package reliability. The all-clean batch — the
	// overwhelmingly common read — is verified by the code's remainder
	// check, four codewords at a time, without running the scalar decoder
	// at all. Unless a spared device's position is erased, a codeword
	// with exactly one bad symbol — every read of a page upgraded after a
	// device failure — is corrected straight from that remainder, with
	// the scalar decoder's result; only the other dirty codewords run it.
	// The call performs zero heap allocations in steady state.
	DecodeBatchInto(buf []byte, stride, count int, s *Scratch) (corrected int, err error)
	// NewScratch allocates a decode workspace sized for this scheme.
	NewScratch() *Scratch
}

// rsScheme is the shared shape of the RS-backed schemes.
type rsScheme struct {
	name     string
	code     *rs.Code
	maxFix   int // correction bound (policy, not raw code capability)
	detectGt int // guaranteed detect count
}

func (s *rsScheme) Name() string          { return s.name }
func (s *rsScheme) DataSymbols() int      { return s.code.K() }
func (s *rsScheme) TotalSymbols() int     { return s.code.N() }
func (s *rsScheme) CheckSymbols() int     { return s.code.CheckSymbols() }
func (s *rsScheme) GuaranteedDetect() int { return s.detectGt }

// EncodeInto implements Scheme: the data symbols are the codeword prefix,
// so this is the underlying code's in-place systematic encode.
func (s *rsScheme) EncodeInto(cw []byte) { s.code.EncodeInto(cw) }

// DecodeBatchInto implements Scheme on rs.DecodeBatchFlat: data symbols are
// the codeword prefix, so the in-place batch correction already leaves the
// recovered data at its natural positions.
func (s *rsScheme) DecodeBatchInto(buf []byte, stride, count int, scr *Scratch) (int, error) {
	res := s.code.DecodeBatchFlat(buf, stride, count, nil, s.maxFix, scr.rs)
	if !res.OK() {
		return res.Corrected, ErrDetected
	}
	return res.Corrected, nil
}

// NewScratch implements Scheme.
func (s *rsScheme) NewScratch() *Scratch { return &Scratch{rs: s.code.NewScratch()} }

// NewRelaxed returns the relaxed-mode code: 16 data + 2 check symbols,
// single symbol correct / single symbol detect. An 18-device rank serves one
// symbol per device.
func NewRelaxed() Scheme {
	return &rsScheme{name: "relaxed-scc", code: rs.New(18, 16), maxFix: 1, detectGt: 1}
}

// NewSCCDCD returns the commercial chipkill-correct code of Fig. 2.1:
// 32 data + 4 check symbols, decoded with a single-error bound so that the
// remaining redundancy guarantees detection of a second bad symbol. This
// mirrors the "somewhat inefficient encoding" the paper attributes to
// commercial SCCDCD: all four check symbols are spent on single correct +
// double detect.
func NewSCCDCD() Scheme {
	return &rsScheme{name: "sccdcd", code: rs.New(36, 32), maxFix: 1, detectGt: 2}
}

// NewEightCheck returns the §5.1 second-level upgrade code: 64 data + 8
// check symbols striped across four channels, decoded at a two-error bound
// (remaining redundancy still guarantees detection of four bad symbols in
// principle; we claim the conservative 4).
func NewEightCheck() Scheme {
	return &rsScheme{name: "eight-check", code: rs.New(72, 64), maxFix: 2, detectGt: 4}
}

// StorageOverhead returns the scheme's redundant-storage fraction:
// (total - data) / data symbols. The paper's central storage claim is that
// ARCC's mode changes never move this number: relaxed (2/16), upgraded
// SCCDCD (4/32), double chip sparing (4/32 counting the spare), and the
// §5.1 eight-check mode (8/64) all cost exactly 12.5%, the same as
// SECDED DIMMs.
func StorageOverhead(s Scheme) float64 {
	return float64(s.TotalSymbols()-s.DataSymbols()) / float64(s.DataSymbols())
}
