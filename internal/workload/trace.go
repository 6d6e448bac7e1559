package workload

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

// Trace recording and replay: a compact binary format for memory access
// streams, so that interesting workloads (including ones captured from
// other tools) can be replayed deterministically through the simulator
// instead of being regenerated.
//
// Format: an 8-byte header ("ARCCTRC1"), then one record per access:
//
//	uint64 line address
//	uint32 gap (instructions since the previous access)
//	uint8  flags (bit 0: write)
//
// all little-endian.

var traceMagic = [8]byte{'A', 'R', 'C', 'C', 'T', 'R', 'C', '1'}

// ErrBadTrace reports a malformed trace stream.
var ErrBadTrace = errors.New("workload: malformed trace")

// TraceWriter streams accesses into an io.Writer.
type TraceWriter struct {
	w     *bufio.Writer
	count int64
}

// NewTraceWriter writes the header and returns a writer.
func NewTraceWriter(w io.Writer) (*TraceWriter, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(traceMagic[:]); err != nil {
		return nil, fmt.Errorf("workload: writing trace header: %w", err)
	}
	return &TraceWriter{w: bw}, nil
}

// Write appends one access.
func (t *TraceWriter) Write(a Access) error {
	var rec [13]byte
	binary.LittleEndian.PutUint64(rec[0:8], a.Line)
	if a.Gap < 0 || int64(a.Gap) > int64(^uint32(0)) {
		return fmt.Errorf("workload: gap %d does not fit the trace format", a.Gap)
	}
	binary.LittleEndian.PutUint32(rec[8:12], uint32(a.Gap))
	if a.Write {
		rec[12] = 1
	}
	if _, err := t.w.Write(rec[:]); err != nil {
		return fmt.Errorf("workload: writing trace record: %w", err)
	}
	t.count++
	return nil
}

// Count returns the number of records written.
func (t *TraceWriter) Count() int64 { return t.count }

// Flush drains buffered records to the underlying writer.
func (t *TraceWriter) Flush() error { return t.w.Flush() }

// TraceReader replays accesses from an io.Reader.
type TraceReader struct {
	r *bufio.Reader
}

// NewTraceReader validates the header and returns a reader.
func NewTraceReader(r io.Reader) (*TraceReader, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("workload: reading trace header: %w", err)
	}
	if magic != traceMagic {
		return nil, ErrBadTrace
	}
	return &TraceReader{r: br}, nil
}

// Next returns the next access, or io.EOF at the end of the trace.
func (t *TraceReader) Next() (Access, error) {
	var rec [13]byte
	if _, err := io.ReadFull(t.r, rec[:]); err != nil {
		if err == io.EOF {
			return Access{}, io.EOF
		}
		return Access{}, fmt.Errorf("%w: truncated record", ErrBadTrace)
	}
	// Decode the gap through int64: on 32-bit platforms int(uint32) can
	// overflow into a negative gap, which the stream contract forbids.
	gap := int64(binary.LittleEndian.Uint32(rec[8:12]))
	if gap > int64(maxInt) {
		return Access{}, fmt.Errorf("%w: gap %d exceeds the platform int range", ErrBadTrace, gap)
	}
	return Access{
		Line:  binary.LittleEndian.Uint64(rec[0:8]),
		Gap:   int(gap),
		Write: rec[12]&1 != 0,
	}, nil
}

// maxInt is the largest value an int holds on this platform (2^31-1 on
// 32-bit targets, where a trace gap above it cannot be represented).
const maxInt = int(^uint(0) >> 1)

// TraceSource replays a fully-loaded trace as a Source. Unlike the
// streaming TraceReader it holds the whole trace in memory, which buys the
// property multi-shard replay needs: cheap clones (Clone shares the loaded
// access slice and gets an independent cursor at the first access, so each
// simulator core — and each Monte Carlo shard — replays the identical
// sequence without re-reading or re-decoding the file).
type TraceSource struct {
	accesses []Access // shared with clones; immutable after load
	pos      int
}

// NewTraceSource wraps a loaded access sequence.
func NewTraceSource(accesses []Access) *TraceSource {
	if len(accesses) == 0 {
		panic("workload: empty trace source")
	}
	return &TraceSource{accesses: accesses}
}

// LoadTrace decodes a whole trace stream into a TraceSource.
func LoadTrace(r io.Reader) (*TraceSource, error) {
	accesses, err := ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(accesses) == 0 {
		return nil, fmt.Errorf("%w: trace holds no records", ErrBadTrace)
	}
	return NewTraceSource(accesses), nil
}

// LoadTraceFile decodes the trace file at path into a TraceSource.
func LoadTraceFile(path string) (*TraceSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("workload: opening trace: %w", err)
	}
	defer f.Close()
	src, err := LoadTrace(f)
	if err != nil {
		return nil, fmt.Errorf("workload: reading trace %s: %w", path, err)
	}
	return src, nil
}

// Next implements Source. Past the end of the trace it wraps to the
// beginning.
func (t *TraceSource) Next() Access {
	a := t.accesses[t.pos]
	t.pos++
	if t.pos == len(t.accesses) {
		t.pos = 0
	}
	return a
}

// Clone returns an independent cursor over the same loaded trace. Clones
// share the (immutable) access slice, so handing one to each simulator
// core or each shard of a fan-out costs no copying.
func (t *TraceSource) Clone() *TraceSource {
	return &TraceSource{accesses: t.accesses}
}

// Len returns the number of accesses in the trace.
func (t *TraceSource) Len() int { return len(t.accesses) }

var _ Source = (*TraceSource)(nil)

// Record captures n accesses from a stream into w. It returns the
// number of records accepted; when a mid-stream write fails it flushes
// the records accepted before the failure — so w holds a valid trace
// prefix rather than losing a buffer's worth of tail — and returns the
// count alongside the error.
func Record(w io.Writer, s *Stream, n int) (int64, error) {
	tw, err := NewTraceWriter(w)
	if err != nil {
		return 0, err
	}
	for i := 0; i < n; i++ {
		if err := tw.Write(s.Next()); err != nil {
			// Best-effort flush of the accepted records; the write error
			// is the root cause, so it wins over any flush error.
			tw.Flush()
			return tw.Count(), err
		}
	}
	return tw.Count(), tw.Flush()
}
