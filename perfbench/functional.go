package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"arcc/internal/core"
	"arcc/internal/dram"
	"arcc/internal/ecc"
	"arcc/internal/faultmodel"
	"arcc/internal/mc"
	"arcc/internal/pagetable"
	"arcc/internal/scrub"
)

// functionalRW drives the functional ARCC controller on the sparse paged
// memory: seeded batches of ReadLineInto/ReadPairInto/WriteLine, checked
// against a shadow copy, with faults injected on a fixed schedule and a
// patrol scrub that finds them and upgrades the pages. One op is one
// batch; the work unit is 64 B line accesses.
var functionalRW = loadSpec{cycle: fnScrubEvery, setup: setupFunctional}

const (
	fnPages     = 256  // pages per controller
	fnRows      = 8    // rows per bank: 8 banks × 8 rows × 2 pages = 128 pages per rank
	fnBatch     = 2048 // line accesses per op
	fnReadShare = 7    // reads per 10 accesses
	// Every fnScrubEvery-th batch also patrol-scrubs fnScrubPages pages,
	// so scrub batches are the latency tail.
	fnScrubEvery = 8
	fnScrubPages = 16
	// fnDigestAt is the batch after which the controller and scrubber
	// counts are digested: three patrol passes after the last fault, so
	// every faulty page has been upgraded and, on the four-channel
	// controller, promoted to the eight-check code.
	fnDigestAt = 1024
)

// fnFault is one scheduled fault injection.
type fnFault struct {
	at       int // batch index
	ctl      int
	ch, rank int
	fault    dram.Fault
}

// fnSchedule places at most one faulty device per rank on the
// two-channel controller, and per rank at most one in each channel pair
// {0,1} and {2,3} of the four-channel one, so no codeword of any mode ever
// sees more faulty symbols than its code corrects: every read must return
// the last data written. Fault types are fixed, so every seed upgrades the
// same number of pages, and so are the faulty devices: the cost of
// correcting a symbol depends on its position in the codeword, so a device
// drawn from the seed makes the workload's cost vary with the seed. The
// seed picks channels, coordinates and stuck-at modes.
var fnSchedule = []struct {
	ctl, rank, chBase, chSpan, device int
	typ                               faultmodel.Type
}{
	{0, 0, 0, 2, 3, faultmodel.Bank},
	{1, 0, 0, 2, 11, faultmodel.Column},
	{0, 1, 0, 2, 7, faultmodel.Column},
	{1, 0, 2, 2, 15, faultmodel.Bank},
	{1, 1, 0, 2, 1, faultmodel.Row},
	{1, 1, 2, 2, 9, faultmodel.Word},
}

type fnCtl struct {
	c       *core.Controller
	s       *scrub.Scrubber
	shadow  []byte // fnPages × 4 KB of the last data written
	written []bool // pages the workload has written
}

type functionalInst struct {
	ctl    [2]*fnCtl
	rng    *rand.Rand
	trng   *rand.Rand // the traced run's codec replays draw from their own stream
	faults []fnFault
	cursor int // patrol scrub position over both controllers' pages

	line, pair, raw []byte
	batches         int
	digest          string
	snapshot        map[string]any
}

func newFnCtl(channels int) *fnCtl {
	c := core.New(core.Config{Pages: fnPages, Channels: channels, RanksPerChannel: 2, BanksPerDevice: 8, RowsPerBank: fnRows})
	return &fnCtl{c: c, s: scrub.New(c, scrub.FourStep), shadow: make([]byte, fnPages*core.LinesPerPage*core.LineBytes),
		written: make([]bool, fnPages)}
}

func setupFunctional(seed int64) (instance, error) {
	f := &functionalInst{
		rng:  rand.New(rand.NewSource(mc.DeriveSeed(seed, 0))),
		trng: rand.New(rand.NewSource(mc.DeriveSeed(seed, 2))),
		line: make([]byte, core.LineBytes),
		pair: make([]byte, 2*core.LineBytes),
		raw:  make([]byte, 72),
	}
	f.ctl[0], f.ctl[1] = newFnCtl(2), newFnCtl(4)
	// The data image: every pair written in the upgraded boot state, then
	// the boot scrub relaxes every (still fault-free) page.
	for _, ctl := range f.ctl {
		f.rng.Read(ctl.shadow)
		for page := 0; page < fnPages; page++ {
			for p := 0; p < core.LinesPerPage/2; p++ {
				off := (page*core.LinesPerPage + 2*p) * core.LineBytes
				ctl.c.WritePair(page, p, ctl.shadow[off:off+2*core.LineBytes])
			}
			ctl.written[page] = true
		}
		if n := ctl.s.BootScrub(); n != fnPages {
			return nil, fmt.Errorf("boot scrub relaxed %d of %d pages", n, fnPages)
		}
	}
	frng := rand.New(rand.NewSource(mc.DeriveSeed(seed, 1)))
	for j, s := range fnSchedule {
		ch := s.chBase + frng.Intn(s.chSpan)
		g := f.ctl[s.ctl].c.Rank(ch, s.rank).Geometry()
		a := faultmodel.Arrival{Type: s.typ, Rank: s.rank, Device: s.device}
		f.faults = append(f.faults, fnFault{at: 4 + 6*j, ctl: s.ctl, ch: ch, rank: s.rank,
			fault: faultmodel.ToDRAMFault(frng, a, g)})
	}
	// Warm-up: one batch of accesses, no fault or scrub.
	if _, err := f.accesses(nil); err != nil {
		return nil, err
	}
	return f, nil
}

func (f *functionalInst) op(i int) (float64, error) { return f.batch(i, nil, 0) }

func (f *functionalInst) tracedOp(i int, tr *tracer) (float64, error) {
	root := tr.begin("op", 0, i)
	t0 := time.Now()
	work, err := f.batch(i, tr, root)
	tr.opLatency(time.Since(t0))
	f.replayCodecs(tr, root, i)
	tr.end(root)
	return work, err
}

// batch runs batch i: its scheduled fault injections, the line
// accesses, and (every fnScrubEvery-th batch) a patrol-scrub step. With a
// tracer it records a span per phase and times each controller call.
func (f *functionalInst) batch(i int, tr *tracer, root int) (float64, error) {
	for _, flt := range f.faults {
		if flt.at == i {
			f.ctl[flt.ctl].c.InjectFault(flt.ch, flt.rank, flt.fault)
		}
	}
	sp := 0
	if tr != nil {
		sp = tr.begin("core.access", root, i)
	}
	work, err := f.accesses(tr)
	if tr != nil {
		tr.end(sp)
	}
	if i%fnScrubEvery == fnScrubEvery-1 {
		if serr := f.patrol(tr, root, i); err == nil {
			err = serr
		}
	}
	f.batches++
	if i+1 == fnDigestAt {
		f.takeDigest()
	}
	return work, err
}

// accesses runs one batch of line accesses. A wrong-data read or a DUE
// fails the batch.
func (f *functionalInst) accesses(tr *tracer) (float64, error) {
	var work float64
	var failure error
	for a := 0; a < fnBatch; a++ {
		ctl := f.ctl[f.rng.Intn(2)]
		page := f.rng.Intn(fnPages)
		line := f.rng.Intn(core.LinesPerPage)
		kind := f.rng.Intn(10)
		mode := ctl.c.PageMode(page)
		off := (page*core.LinesPerPage + line) * core.LineBytes
		if kind >= fnReadShare {
			f.rng.Read(f.line)
		}
		var err error
		var t0 time.Time
		if tr != nil {
			t0 = time.Now()
		}
		switch {
		case kind >= fnReadShare:
			err = ctl.c.WriteLine(page, line, f.line)
			if tr != nil {
				tr.add("core.write_line", time.Since(t0), 1)
			}
			if err == nil {
				copy(ctl.shadow[off:], f.line)
				ctl.written[page] = true
			}
			work++
		case mode == pagetable.Upgraded && kind%2 == 0:
			pair := line / 2
			err = ctl.c.ReadPairInto(page, pair, f.pair)
			if tr != nil {
				tr.add("core.read_pair", time.Since(t0), 1)
			}
			poff := (page*core.LinesPerPage + 2*pair) * core.LineBytes
			if err == nil && !bytes.Equal(f.pair, ctl.shadow[poff:poff+2*core.LineBytes]) {
				failure = fail("wrong_data", fmt.Errorf("pair %d of page %d read back wrong data", pair, page))
			}
			work += 2
		default:
			err = ctl.c.ReadLineInto(page, line, f.line)
			if tr != nil {
				tr.add("core.read_line", time.Since(t0), 1)
			}
			if err == nil && !bytes.Equal(f.line, ctl.shadow[off:off+core.LineBytes]) {
				failure = fail("wrong_data", fmt.Errorf("line %d of page %d read back wrong data", line, page))
			}
			work++
		}
		if err != nil {
			if !errors.Is(err, core.ErrUncorrectable) {
				return work, fail("error", err)
			}
			// fnSchedule keeps every codeword within its code's correction
			// capability, so any DUE is a failure.
			if failure == nil {
				failure = fail("due_unexpected", fmt.Errorf("DUE on page %d line %d (%v) within the code's correction capability", page, line, mode))
			}
		}
	}
	return work, failure
}

// patrol scrubs the next fnScrubPages pages; a faulty relaxed page is
// upgraded, and a faulty upgraded page of the four-channel controller is
// promoted to the eight-check code.
func (f *functionalInst) patrol(tr *tracer, root, i int) error {
	for k := 0; k < fnScrubPages; k++ {
		ctl := f.ctl[f.cursor/fnPages]
		page := f.cursor % fnPages
		f.cursor = (f.cursor + 1) % (2 * fnPages)
		sp := 0
		if tr != nil {
			sp = tr.begin("scrub.ScrubPage", root, i)
		}
		faulty := ctl.s.ScrubPage(page)
		if tr != nil {
			tr.add("scrub.page", tr.end(sp), 1)
		}
		if !faulty {
			continue
		}
		if tr != nil {
			sp = tr.begin("core.upgrade", root, i)
		}
		var err error
		switch ctl.c.PageMode(page) {
		case pagetable.Relaxed:
			err = ctl.c.UpgradePage(page)
		case pagetable.Upgraded:
			if ctl.c.SupportsStrongUpgrade() {
				err = ctl.c.UpgradePageToStrong(page)
			}
		}
		if tr != nil {
			tr.end(sp)
		}
		if err != nil {
			return fail("upgrade_due", fmt.Errorf("upgrading page %d: %w", page, err))
		}
	}
	return nil
}

// takeDigest hashes both controllers' and scrubbers' counts and the data
// image at batch fnDigestAt.
func (f *functionalInst) takeDigest() {
	h := sha256.New()
	snap := map[string]any{}
	var corrected, dues, upgrades, resident, touched int64
	for k, ctl := range f.ctl {
		cs, ss := ctl.c.Stats(), ctl.s.Stats()
		_ = binary.Write(h, binary.LittleEndian, cs)
		_ = binary.Write(h, binary.LittleEndian, ss)
		h.Write(ctl.shadow)
		snap[fmt.Sprintf("core%d", k)] = cs
		snap[fmt.Sprintf("scrub%d", k)] = ss
		corrected += cs.Corrected
		dues += cs.DUEs
		upgrades += cs.PageUpgrades + cs.StrongUpgrades
		resident += int64(ctl.c.ResidentPages())
		for _, w := range ctl.written {
			if w {
				touched++
			}
		}
	}
	snap["corrected"], snap["dues"], snap["upgrades"] = corrected, dues, upgrades
	snap["resident_pages"], snap["touched_pages"] = resident, touched
	f.digest = hex.EncodeToString(h.Sum(nil))
	f.snapshot = snap
}

func (f *functionalInst) verify() (string, []string, map[string]any) {
	var problems []string
	if f.digest == "" {
		problems = append(problems, fmt.Sprintf("run ended after %d batches, before the batch-%d digest", f.batches, fnDigestAt))
	}
	notes := map[string]any{"batches": f.batches, "at_digest": f.snapshot}
	return f.digest, problems, notes
}

func (f *functionalInst) close() {}

// replayCodecs times the ECC layer alone: batch decode of codewords
// gathered from RawReadInto on pages in each mode (fault overlays
// included), and encode of random payloads, for each scheme.
func (f *functionalInst) replayCodecs(tr *tracer, root, i int) {
	type scheme struct {
		name   string
		s      ecc.Scheme
		mode   pagetable.Mode
		n      int // symbols per codeword
		lines  int // sub-lines gathered per 4-codeword unit
		stride int
	}
	schemes := []scheme{
		{"relaxed", ecc.NewRelaxed(), pagetable.Relaxed, 18, 1, 18},
		{"sccdcd", ecc.NewSCCDCD(), pagetable.Upgraded, 36, 2, 36},
		{"eight_check", ecc.NewEightCheck(), pagetable.Upgraded8, 72, 4, 72},
	}
	const units = 32
	for _, sc := range schemes {
		buf := make([]byte, 0, units*4*sc.n)
		for _, ctl := range f.ctl {
			for page := 0; page < fnPages && len(buf) < cap(buf); page++ {
				if ctl.c.PageMode(page) != sc.mode {
					continue
				}
				line := f.trng.Intn(core.LinesPerPage/sc.lines) * sc.lines
				buf = append(buf, f.gather(ctl, page, line, sc.lines)...)
			}
		}
		if len(buf) == 0 {
			continue
		}
		scr := sc.s.NewScratch()
		count := len(buf) / sc.n
		sp := tr.begin("ecc.decode."+sc.name, root, i)
		for off := 0; off < len(buf); off += 4 * sc.n {
			_, _ = sc.s.DecodeBatchInto(buf[off:off+4*sc.n], sc.stride, 4, scr)
		}
		tr.add("ecc.decode."+sc.name, tr.end(sp), float64(count))

		for off := 0; off < len(buf); off += sc.n {
			f.trng.Read(buf[off : off+sc.n-(sc.n/9)])
		}
		sp = tr.begin("ecc.encode", root, i)
		for off := 0; off < len(buf); off += sc.n {
			sc.s.EncodeInto(buf[off : off+sc.n])
		}
		tr.add("ecc.encode", tr.end(sp), float64(count))
	}
}

// gather assembles the four codewords covering sub-lines line..line+lines-1
// of page the way the controller lays them out for its decode.
func (f *functionalInst) gather(ctl *fnCtl, page, line, lines int) []byte {
	var stored [4][]byte
	for k := 0; k < lines; k++ {
		stored[k] = append([]byte(nil), ctl.c.RawReadInto(page, line+k, f.raw)...)
	}
	n := 18 * lines
	out := make([]byte, 4*n)
	for cw := 0; cw < 4; cw++ {
		full := out[cw*n : (cw+1)*n]
		for k := 0; k < lines; k++ {
			copy(full[k*16:(k+1)*16], stored[k][cw*18:cw*18+16])
			full[16*lines+2*k] = stored[k][cw*18+16]
			full[16*lines+2*k+1] = stored[k][cw*18+17]
		}
	}
	return out
}

func (f *functionalInst) layerMetrics(tr *tracer) map[string]metric {
	get := func(k string) float64 {
		if v, ok := f.snapshot[k].(int64); ok {
			return float64(v)
		}
		return 0
	}
	return map[string]metric{
		"core.read_line_ns":                            {tr.nsPer("core.read_line"), "ns"},
		"core.read_pair_ns":                            {tr.nsPer("core.read_pair"), "ns"},
		"core.write_line_ns":                           {tr.nsPer("core.write_line"), "ns"},
		"ecc.decode_batch_ns_per_codeword.relaxed":     {tr.nsPer("ecc.decode.relaxed"), "ns"},
		"ecc.decode_batch_ns_per_codeword.sccdcd":      {tr.nsPer("ecc.decode.sccdcd"), "ns"},
		"ecc.decode_batch_ns_per_codeword.eight_check": {tr.nsPer("ecc.decode.eight_check"), "ns"},
		"ecc.encode_ns":                                {tr.nsPer("ecc.encode"), "ns"},
		"scrub.page_ns":                                {tr.nsPer("scrub.page"), "ns"},
		"core.corrected":                               {get("corrected"), "count"},
		"core.dues":                                    {get("dues"), "count"},
		"core.page_upgrades":                           {get("upgrades"), "count"},
		"pagedmem.resident_pages":                      {get("resident_pages"), "count"},
		"pagedmem.touched_pages":                       {get("touched_pages"), "count"},
	}
}
