// Package dram models the DRAM storage substrate: channels of ranks of
// devices with bank/row/column geometry, a sparse backing store, and
// device-level fault overlays that corrupt reads the way real device
// failures do (stuck-at bits, dead devices, faulty row/column decoders).
//
// The model stores whole memory *lines*: each line is BeatsPerLine symbols
// wide per device, so a rank of D devices serves lines of D*BeatsPerLine
// bytes. Chipkill codes stripe each codeword across the devices — symbol i
// of beat b lives in device i — so a whole-device fault corrupts exactly one
// symbol per codeword. Timing and power live in packages memctrl and power;
// this package is purely functional storage plus corruption.
package dram

import (
	"fmt"
	"math/bits"

	"arcc/internal/pagedmem"
)

// Geometry describes one rank's organisation. The ARCC evaluation uses
// 18-device x8 ranks (relaxed channel) and 36-device x4 lockstep ranks
// (baseline), both with 8 banks per device (DDR2 512 Mb devices).
type Geometry struct {
	DevicesPerRank int // symbols per beat
	BanksPerDevice int
	RowsPerBank    int
	ColsPerRow     int // line-sized columns per row
	BeatsPerLine   int // symbols each device contributes to one line
}

// LineBytes returns the total bytes (data + check) of one stored line.
func (g Geometry) LineBytes() int { return g.DevicesPerRank * g.BeatsPerLine }

// Addr locates one line within a rank.
type Addr struct {
	Bank int
	Row  int
	Col  int
}

func (g Geometry) validate(a Addr) {
	if a.Bank < 0 || a.Bank >= g.BanksPerDevice ||
		a.Row < 0 || a.Row >= g.RowsPerBank ||
		a.Col < 0 || a.Col >= g.ColsPerRow {
		panic(fmt.Sprintf("dram: address %+v outside geometry %+v", a, g))
	}
}

// flat returns the line index of a within the rank. Every operand is
// explicitly widened to uint64 before multiplying; NewRank rejects
// geometries whose TotalBytes overflow, so for a validated address the
// arithmetic here cannot wrap.
func (g Geometry) flat(a Addr) uint64 {
	return (uint64(a.Bank)*uint64(g.RowsPerBank)+uint64(a.Row))*uint64(g.ColsPerRow) + uint64(a.Col)
}

// TotalLines returns the number of addressable lines in the geometry, or
// an error when banks*rows*cols overflows uint64.
func (g Geometry) TotalLines() (uint64, error) {
	hi, lines := bits.Mul64(uint64(g.BanksPerDevice), uint64(g.RowsPerBank))
	if hi != 0 {
		return 0, fmt.Errorf("dram: geometry %+v overflows: %d banks x %d rows", g, g.BanksPerDevice, g.RowsPerBank)
	}
	hi, lines = bits.Mul64(lines, uint64(g.ColsPerRow))
	if hi != 0 {
		return 0, fmt.Errorf("dram: geometry %+v overflows: line count exceeds 2^64", g)
	}
	return lines, nil
}

// TotalBytes returns the stored capacity of the geometry in bytes
// (TotalLines * LineBytes), or an error when the flat byte address space
// overflows uint64 — the guard that makes flat-address arithmetic safe now
// that terabyte-and-beyond geometries are expressible.
func (g Geometry) TotalBytes() (uint64, error) {
	lines, err := g.TotalLines()
	if err != nil {
		return 0, err
	}
	hi, bytes := bits.Mul64(lines, uint64(g.LineBytes()))
	if hi != 0 {
		return 0, fmt.Errorf("dram: geometry %+v overflows: byte address space exceeds 2^64", g)
	}
	return bytes, nil
}

// rankPageBytes is the page size of a rank's sparse backing store. 4 KiB
// matches the OS page the paper's per-page modes are defined over; a
// 72-byte stored line occasionally straddles two backing pages, which the
// pagedmem span loop handles.
const rankPageBytes = 4096

// Rank is a group of devices accessed together. The backing store is a
// sparse paged memory: unwritten lines read as zero (a freshly-initialised,
// scrubbed memory), and host memory is proportional to the pages actually
// written, not the addressable capacity — a rank can span terabytes.
type Rank struct {
	geom      Geometry
	lineBytes uint64 // cached Geometry.LineBytes()
	mem       *pagedmem.Memory
	faults    []Fault
}

// NewRank constructs an empty rank. Geometries whose flat byte address
// space overflows uint64 are rejected, so all later address arithmetic is
// exact.
func NewRank(g Geometry) *Rank {
	if g.DevicesPerRank <= 0 || g.BanksPerDevice <= 0 || g.RowsPerBank <= 0 ||
		g.ColsPerRow <= 0 || g.BeatsPerLine <= 0 {
		panic(fmt.Sprintf("dram: invalid geometry %+v", g))
	}
	if _, err := g.TotalBytes(); err != nil {
		panic(err.Error())
	}
	return &Rank{geom: g, lineBytes: uint64(g.LineBytes()), mem: pagedmem.New(rankPageBytes)}
}

// Geometry returns the rank's geometry.
func (r *Rank) Geometry() Geometry { return r.geom }

// WriteLine stores a line. The data length must equal Geometry().LineBytes().
// Writes are recorded faithfully; corruption happens on read, which is how
// stuck-at faults hide until the cell is read back. Steady-state writes to
// already-materialised pages do not allocate, and all-zero writes over
// never-touched memory materialise nothing.
func (r *Rank) WriteLine(a Addr, data []byte) {
	r.geom.validate(a)
	if len(data) != r.geom.LineBytes() {
		panic(fmt.Sprintf("dram: WriteLine with %d bytes, want %d", len(data), r.geom.LineBytes()))
	}
	r.mem.StoreFrom(r.geom.flat(a)*r.lineBytes, data)
}

// ReadLineInto fetches a line with all applicable fault corruption applied
// into out, a caller-owned buffer of LineBytes() bytes, which is
// overwritten and returned; it performs no heap allocations. Symbol s of
// beat b sits at offset b*DevicesPerRank + s and comes from device s.
func (r *Rank) ReadLineInto(a Addr, out []byte) []byte {
	r.geom.validate(a)
	if len(out) != r.geom.LineBytes() {
		panic(fmt.Sprintf("dram: ReadLineInto with %d bytes, want %d", len(out), r.geom.LineBytes()))
	}
	r.mem.LoadInto(r.geom.flat(a)*r.lineBytes, out)
	for i := range r.faults {
		r.faults[i].corrupt(r, a, out)
	}
	return out
}

// InjectFault adds a fault overlay to the rank. Faults accumulate; each read
// applies all overlays in injection order.
func (r *Rank) InjectFault(f Fault) {
	f.validate(r.geom)
	r.faults = append(r.faults, f)
}

// ResidentPages reports how many backing-store pages are materialised.
func (r *Rank) ResidentPages() int { return r.mem.ResidentPages() }

// ResidentBytes reports the host memory held by the rank's backing store.
func (r *Rank) ResidentBytes() int64 { return r.mem.ResidentBytes() }

// CompactZero releases backing pages whose content has returned to all
// zero (scrub-verified-zero release) and reports how many were released.
func (r *Rank) CompactZero() int { return r.mem.CompactZero() }
