// Package benchcmp implements the repository's performance-trajectory
// gate: it diffs two of the machine-readable benchmark files emitted by
// scripts/bench.sh (the BENCH_PR<N>.json points checked in per PR) and
// decides whether the newer one regresses the hot path.
//
// A file may hold several samples of one benchmark (bench.sh runs
// -count=5); each benchmark is compared on the median of its samples, so
// one noisy sample neither fails nor hides a change. A comparison fails
// when any benchmark present in both files either
//
//   - slows down in median by more than the ns/op threshold (default 15%), or
//   - starts allocating: allocs/op was zero in the old file and is nonzero
//     in the new one, which means a steady-state path lost its
//     scratch-reuse discipline.
//
// Benchmarks matching the exclude pattern (by default the ^BenchmarkFig
// end-to-end exhibit regenerators, which run a handful of iterations and
// are too noisy to gate on) are reported but never fail the gate, as are
// benchmarks that only one file contains. cmd/arcc-benchcmp is the CLI
// wrapper CI runs on every push.
//
// The report opens with the host each file was recorded on (LoadHost):
// ns/op compares code only between files from the same kind of machine,
// so when the hosts differ the report says so, and its deltas mix the
// code's change with the hosts' speed.
package benchcmp

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Point is one benchmark measurement as bench.sh records it. The metric
// fields are pointers because the awk emitter writes JSON null for metrics
// a benchmark line did not report.
type Point struct {
	Name        string   `json:"name"`
	Iterations  int64    `json:"iterations"`
	NsPerOp     *float64 `json:"ns_per_op"`
	BytesPerOp  *float64 `json:"bytes_per_op"`
	AllocsPerOp *float64 `json:"allocs_per_op"`
}

// Parse decodes a bench.sh JSON array.
func Parse(data []byte) ([]Point, error) {
	var pts []Point
	if err := json.Unmarshal(data, &pts); err != nil {
		return nil, fmt.Errorf("benchcmp: %w", err)
	}
	for i, p := range pts {
		if p.Name == "" {
			return nil, fmt.Errorf("benchcmp: entry %d has no name", i)
		}
	}
	return pts, nil
}

// Load reads and parses one bench.sh JSON file.
func Load(path string) ([]Point, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchcmp: %w", err)
	}
	pts, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("benchcmp: %s: %w", path, err)
	}
	return pts, nil
}

// Verdict classifies one benchmark's comparison.
type Verdict string

const (
	// OK: present in both files, within the threshold, allocation
	// discipline intact.
	OK Verdict = "ok"
	// Faster: improved by more than the threshold (informational).
	Faster Verdict = "faster"
	// Regression: slowed down past the threshold, or went from zero to
	// nonzero allocs/op. Fails the gate.
	Regression Verdict = "REGRESSION"
	// Excluded: matched the exclude pattern; compared but never gating.
	Excluded Verdict = "excluded"
	// Added / Removed: present in only one file (informational — new
	// benchmarks have no baseline, deleted ones no successor).
	Added   Verdict = "added"
	Removed Verdict = "removed"
)

// Row is the comparison of one benchmark name.
type Row struct {
	Name string
	// Old and New hold the medians of the name's samples in each file.
	Old     *Point // nil when Added
	New     *Point // nil when Removed
	Verdict Verdict
	// Delta is the fractional ns/op change (new/old - 1) when both sides
	// report ns/op; NaN-free: zero when either side is missing the metric.
	Delta float64
	// Why explains a Regression verdict.
	Why string
}

// Options tunes the gate.
type Options struct {
	// Threshold is the fractional ns/op slowdown that fails the gate;
	// zero means the 0.15 default.
	Threshold float64
	// Exclude, when non-nil, marks matching benchmark names as
	// non-gating (noisy end-to-end samples).
	Exclude *regexp.Regexp
}

// DefaultThreshold is the ns/op slowdown fraction the gate tolerates.
const DefaultThreshold = 0.15

// DefaultExcludePattern matches the benchmarks the gate reports but never
// fails on: the exhibit regenerators run -benchtime=3x and their ns/op is
// a wall-time sample, not a steady-state measurement.
const DefaultExcludePattern = `^BenchmarkFig`

// Report is the outcome of one comparison.
type Report struct {
	Rows      []Row
	Threshold float64
	// OldHost and NewHost, when set, are the hosts the two files were
	// recorded on; Write prints them first.
	OldHost, NewHost Host
}

// Host is the machine a benchmark file was recorded on, as far as the
// files tell: the cpu: line go test prints into the raw text bench.sh
// keeps beside the JSON, and GOMAXPROCS from the -N suffix go test
// appends to benchmark names (it appends none at GOMAXPROCS 1).
type Host struct {
	CPU   string // "" when unknown
	Procs int    // 0 when unknown
}

// LoadHost returns the host of the benchmark file at path, whose points
// are pts: the first cpu: line of the sibling .txt (path with .json
// replaced), and the GOMAXPROCS suffix of the first point name that has
// one, or 1 when none has. A missing or unreadable .txt leaves the CPU
// unknown; it does not fail the comparison, which needs only the JSON.
func LoadHost(path string, pts []Point) Host {
	var h Host
	if raw, err := os.ReadFile(strings.TrimSuffix(path, ".json") + ".txt"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if cpu, ok := strings.CutPrefix(line, "cpu:"); ok {
				h.CPU = strings.TrimSpace(cpu)
				break
			}
		}
	}
	if len(pts) > 0 {
		h.Procs = 1
	}
	for _, p := range pts {
		if c := canonical(p.Name); c != p.Name {
			if n, err := strconv.Atoi(p.Name[len(c)+1:]); err == nil {
				h.Procs = n
				break
			}
		}
	}
	return h
}

func (h Host) String() string {
	cpu, procs := h.CPU, "?"
	if cpu == "" {
		cpu = "unknown cpu"
	}
	if h.Procs > 0 {
		procs = strconv.Itoa(h.Procs)
	}
	return fmt.Sprintf("%s, GOMAXPROCS %s", cpu, procs)
}

// differs reports whether h and o are known to be different hosts: a
// field unknown on either side is no evidence either way.
func (h Host) differs(o Host) bool {
	return (h.CPU != "" && o.CPU != "" && h.CPU != o.CPU) ||
		(h.Procs > 0 && o.Procs > 0 && h.Procs != o.Procs)
}

// Failed reports whether any row regressed.
func (r *Report) Failed() bool {
	for _, row := range r.Rows {
		if row.Verdict == Regression {
			return true
		}
	}
	return false
}

// Regressions returns the failing rows.
func (r *Report) Regressions() []Row {
	var out []Row
	for _, row := range r.Rows {
		if row.Verdict == Regression {
			out = append(out, row)
		}
	}
	return out
}

// canonical strips the -<GOMAXPROCS> suffix go test appends to benchmark
// names, so files recorded on machines with different core counts still
// match up.
func canonical(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		digits := name[i+1:]
		if len(digits) > 0 && strings.Trim(digits, "0123456789") == "" {
			return name[:i]
		}
	}
	return name
}

// Compare diffs two benchmark files, old first. Rows come back sorted by
// benchmark name.
func Compare(oldPts, newPts []Point, opts Options) *Report {
	threshold := opts.Threshold
	if threshold == 0 {
		threshold = DefaultThreshold
	}
	oldBy, newBy := medians(oldPts), medians(newPts)
	names := make([]string, 0, len(oldBy)+len(newBy))
	for n := range oldBy {
		names = append(names, n)
	}
	for n := range newBy {
		if _, ok := oldBy[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)

	rep := &Report{Threshold: threshold}
	for _, name := range names {
		op, np := oldBy[name], newBy[name]
		row := Row{Name: name, Old: op, New: np}
		switch {
		case op == nil:
			row.Verdict = Added
		case np == nil:
			row.Verdict = Removed
		default:
			row.Verdict = OK
			if op.NsPerOp != nil && np.NsPerOp != nil && *op.NsPerOp > 0 {
				row.Delta = *np.NsPerOp / *op.NsPerOp - 1
			}
			excluded := opts.Exclude != nil && opts.Exclude.MatchString(name)
			switch {
			case excluded:
				row.Verdict = Excluded
			case row.Delta > threshold:
				row.Verdict = Regression
				row.Why = fmt.Sprintf("ns/op %.4g -> %.4g (%+.1f%%, threshold %+.0f%%)",
					*op.NsPerOp, *np.NsPerOp, 100*row.Delta, 100*threshold)
			case allocsRegressed(op, np):
				row.Verdict = Regression
				row.Why = fmt.Sprintf("allocs/op 0 -> %g: steady-state path started allocating", *np.AllocsPerOp)
			case row.Delta < -threshold:
				row.Verdict = Faster
			}
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep
}

// medians groups pts by canonical name and returns, per name, one point
// whose metrics are the medians of that name's samples (the mean of the
// middle two for an even count); its Name and Iterations are the first
// sample's.
func medians(pts []Point) map[string]*Point {
	samples := make(map[string][]Point, len(pts))
	for _, p := range pts {
		n := canonical(p.Name)
		samples[n] = append(samples[n], p)
	}
	out := make(map[string]*Point, len(samples))
	for n, ps := range samples {
		m := ps[0]
		m.NsPerOp = median(ps, func(p Point) *float64 { return p.NsPerOp })
		m.BytesPerOp = median(ps, func(p Point) *float64 { return p.BytesPerOp })
		m.AllocsPerOp = median(ps, func(p Point) *float64 { return p.AllocsPerOp })
		out[n] = &m
	}
	return out
}

// median returns the median of metric over the samples that report it,
// or nil when none does.
func median(ps []Point, metric func(Point) *float64) *float64 {
	var v []float64
	for _, p := range ps {
		if x := metric(p); x != nil {
			v = append(v, *x)
		}
	}
	if len(v) == 0 {
		return nil
	}
	sort.Float64s(v)
	m := v[len(v)/2]
	if len(v)%2 == 0 {
		m = (v[len(v)/2-1] + m) / 2
	}
	return &m
}

func allocsRegressed(op, np *Point) bool {
	return op.AllocsPerOp != nil && np.AllocsPerOp != nil &&
		*op.AllocsPerOp == 0 && *np.AllocsPerOp > 0
}

// Write renders the report as an aligned text table with a one-line
// verdict at the end, after the two hosts when they are set and a
// "hosts differ" line when they are known to differ.
func (r *Report) Write(w io.Writer) error {
	if r.OldHost != (Host{}) || r.NewHost != (Host{}) {
		header := fmt.Sprintf("old host: %v\nnew host: %v\n", r.OldHost, r.NewHost)
		if r.OldHost.differs(r.NewHost) {
			header += "benchcmp: hosts differ: ns/op deltas include the hosts' speed difference, not only the code's\n"
		}
		if _, err := io.WriteString(w, header); err != nil {
			return err
		}
	}
	for _, row := range r.Rows {
		line := fmt.Sprintf("%-44s %-10s", row.Name, row.Verdict)
		switch row.Verdict {
		case Added:
			if row.New.NsPerOp != nil {
				line += fmt.Sprintf(" %.4g ns/op", *row.New.NsPerOp)
			}
		case Removed:
			// name alone
		default:
			if row.Old.NsPerOp != nil && row.New.NsPerOp != nil {
				line += fmt.Sprintf(" %10.4g -> %10.4g ns/op (%+.1f%%)",
					*row.Old.NsPerOp, *row.New.NsPerOp, 100*row.Delta)
			}
			if row.Why != "" {
				line += "  [" + row.Why + "]"
			}
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	verdict := "PASS"
	if r.Failed() {
		verdict = fmt.Sprintf("FAIL: %d benchmark(s) regressed past %.0f%%", len(r.Regressions()), 100*r.Threshold)
	}
	_, err := fmt.Fprintf(w, "benchcmp: %s\n", verdict)
	return err
}
