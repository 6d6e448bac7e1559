package workload

import (
	"fmt"
	"io"
)

// Source produces an access stream. *Stream (the synthetic generators) and
// *TraceSource (recorded traces) both implement it, so the simulator can
// run either.
type Source interface {
	Next() Access
}

var _ Source = (*Stream)(nil)

// ReadAll loads an entire trace stream into memory for replay.
func ReadAll(rd io.Reader) ([]Access, error) {
	tr, err := NewTraceReader(rd)
	if err != nil {
		return nil, err
	}
	var out []Access
	for {
		a, err := tr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("workload: reading trace record %d: %w", len(out), err)
		}
		out = append(out, a)
	}
}
