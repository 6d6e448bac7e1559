package main

import "time"

// span is one timed interval at a layer boundary. Spans stay in memory and
// are written to the result file when the run ends.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for an op's root span
	Op     int    `json:"op"`     // op index
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // relative to the tracer's creation
	End    int64  `json:"end_ns"`
}

// tracer records spans and per-layer counters.
type tracer struct {
	t0    time.Time
	spans []span
	// e2e holds, per traced op, the latency of the part of the op an
	// untraced run times, for the tracing-overhead figure.
	e2e []float64
	// sums and counts accumulate per-call timings and counts at layer
	// boundaries too fine-grained for a span per call.
	sums   map[string]time.Duration
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), sums: map[string]time.Duration{}, counts: map[string]float64{}}
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, op int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.t0).Nanoseconds()
	s := &t.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// add accumulates d into the named timing and n into its count.
func (t *tracer) add(name string, d time.Duration, n float64) {
	t.sums[name] += d
	t.counts[name] += n
}

// count accumulates n into the named count.
func (t *tracer) count(name string, n float64) {
	t.counts[name] += n
}

// nsPer returns the accumulated time of name per counted call, in ns.
func (t *tracer) nsPer(name string) float64 {
	if t.counts[name] == 0 {
		return 0
	}
	return float64(t.sums[name].Nanoseconds()) / t.counts[name]
}

// msPer returns the accumulated time of name per counted call, in ms.
func (t *tracer) msPer(name string) float64 { return t.nsPer(name) / 1e6 }

func (t *tracer) opLatency(d time.Duration) {
	t.e2e = append(t.e2e, float64(d)/1e6)
}

// selfTimes returns each span name's total self time in ms: its duration
// minus the part its children cover. Children of one span run one after
// another, so their durations add.
func (t *tracer) selfTimes() map[string]float64 {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		out[s.Name] += float64(s.End-s.Start-child[s.ID]) / 1e6
	}
	return out
}
