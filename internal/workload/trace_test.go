package workload

import (
	"bytes"
	"io"
	"math"
	"slices"
	"testing"
)

func TestTraceRoundTrip(t *testing.T) {
	s := ByName("swim").NewStream(1, 1000)
	var buf bytes.Buffer
	const n = 5000
	count, err := Record(&buf, s, n)
	if err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("recorded %d accesses, want %d", count, n)
	}

	// Replaying must reproduce the identical access sequence.
	ref := ByName("swim").NewStream(1, 1000)
	tr, err := NewTraceReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		got, err := tr.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if want := ref.Next(); got != want {
			t.Fatalf("record %d: %+v != %+v", i, got, want)
		}
	}
	if _, err := tr.Next(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestTraceReaderRejectsBadHeader(t *testing.T) {
	if _, err := NewTraceReader(bytes.NewReader([]byte("NOTATRACE"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := NewTraceReader(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted")
	}
}

func TestTraceReaderRejectsTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Write(Access{Line: 1, Gap: 2}); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	// Chop the last record in half.
	data := buf.Bytes()[:buf.Len()-5]
	tr, err := NewTraceReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Next(); err == nil {
		t.Fatal("truncated record accepted")
	}
}

func TestTraceWriterCountsAndFlags(t *testing.T) {
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	accesses := []Access{
		{Line: 42, Gap: 7, Write: true},
		{Line: 1 << 40, Gap: 1, Write: false},
	}
	for _, a := range accesses {
		if err := tw.Write(a); err != nil {
			t.Fatal(err)
		}
	}
	if tw.Count() != 2 {
		t.Fatalf("count %d", tw.Count())
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	tr, err := NewTraceReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range accesses {
		got, err := tr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("record %d: %+v != %+v", i, got, want)
		}
	}
}

func TestTraceWriterRejectsOversizeGap(t *testing.T) {
	gap := int64(1) << 40
	if gap > math.MaxInt {
		t.Skip("an int cannot hold a gap above the format's 32 bits")
	}
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Write(Access{Gap: int(gap)}); err == nil {
		t.Fatal("oversize gap accepted")
	}
}

func TestReadAllRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := ByName("mesa").NewStream(9, 0)
	if _, err := Record(&buf, s, 10); err != nil {
		t.Fatal(err)
	}
	accesses, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(accesses) != 10 {
		t.Fatalf("ReadAll returned %d accesses", len(accesses))
	}
	s = ByName("mesa").NewStream(9, 0)
	for i, a := range accesses {
		if want := s.Next(); a != want {
			t.Fatalf("access %d = %+v, recorded %+v", i, a, want)
		}
	}
}

// TestTraceGapBoundaryRoundTrip pins the gap decode path at the format's
// boundary values: the maximum encodable gap must survive a round trip
// as a non-negative int on every platform (the old int(uint32) decode
// went negative on 32-bit targets).
func TestTraceGapBoundaryRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	gaps := []int{0, 1, 1<<31 - 1}
	if uint64(maxInt) > 1<<31 {
		// 64-bit platforms can also exercise the full uint32 range.
		// Route through uint32 variables so the literals stay legal on
		// 32-bit builds, where these values do not fit an int constant.
		hi := uint32(1) << 31
		all := ^uint32(0)
		gaps = append(gaps, int(hi), int(all))
	}
	for _, g := range gaps {
		if err := tw.Write(Access{Line: uint64(g), Gap: g}); err != nil {
			t.Fatalf("gap %d rejected: %v", g, err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	tr, err := NewTraceReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range gaps {
		got, err := tr.Next()
		if err != nil {
			t.Fatalf("gap %d: %v", want, err)
		}
		if got.Gap != want {
			t.Fatalf("gap round trip: got %d, want %d", got.Gap, want)
		}
		if got.Gap < 0 {
			t.Fatalf("gap %d decoded negative", want)
		}
	}
}

// failAfterWriter accepts limit bytes, then fails every write.
type failAfterWriter struct {
	limit   int
	written bytes.Buffer
}

func (f *failAfterWriter) Write(p []byte) (int, error) {
	if f.written.Len()+len(p) > f.limit {
		return 0, io.ErrClosedPipe
	}
	return f.written.Write(p)
}

// TestRecordFlushesOnMidStreamFailure: when the underlying writer dies
// mid-recording, Record must report the failure together with how many
// records it accepted, and must have attempted to flush them rather than
// silently dropping a buffer's worth of tail.
func TestRecordFlushesOnMidStreamFailure(t *testing.T) {
	// Room for the header plus a few thousand records, then failure well
	// before the requested count. bufio's default 4 KiB buffer means the
	// failure surfaces on a flush boundary, not on the exact record.
	fw := &failAfterWriter{limit: 8 + 13*3000}
	s := ByName("swim").NewStream(1, 1000)
	count, err := Record(fw, s, 100_000)
	if err == nil {
		t.Fatal("mid-stream write failure not reported")
	}
	if count <= 0 || count >= 100_000 {
		t.Fatalf("accepted-record count %d not in (0, n)", count)
	}
	// Whatever reached the writer must be a readable trace prefix.
	tr, err := NewTraceReader(bytes.NewReader(fw.written.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	read := int64(0)
	ref := ByName("swim").NewStream(1, 1000)
	for {
		got, err := tr.Next()
		if err != nil {
			break // EOF or the torn final record
		}
		if want := ref.Next(); got != want {
			t.Fatalf("record %d diverged after partial flush", read)
		}
		read++
	}
	if read == 0 {
		t.Fatal("no records survived the flush")
	}
	if read > count {
		t.Fatalf("reader found %d records but only %d were accepted", read, count)
	}
}

func TestNewTraceSourcePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewTraceSource(nil)
}

// FuzzLoadTrace feeds arbitrary bytes to the trace loader: it must either
// return an error or yield accesses that re-encode and reload unchanged.
func FuzzLoadTrace(f *testing.F) {
	var valid bytes.Buffer
	if _, err := Record(&valid, ByName("mesa").NewStream(3, 0), 4); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()-1])
	f.Add(traceMagic[:])
	f.Add(append(traceMagic[:], 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xfe))
	f.Add([]byte("ARCCTRC0"))
	f.Fuzz(func(t *testing.T, data []byte) {
		src, err := LoadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		tw, err := NewTraceWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range src.accesses {
			if err := tw.Write(a); err != nil {
				t.Fatalf("re-encoding %+v: %v", a, err)
			}
		}
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
		again, err := LoadTrace(&buf)
		if err != nil {
			t.Fatalf("reloading the re-encoded trace: %v", err)
		}
		if !slices.Equal(again.accesses, src.accesses) {
			t.Fatal("re-encoded trace reloads differently")
		}
	})
}
