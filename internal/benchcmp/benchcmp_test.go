package benchcmp

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func fp(v float64) *float64 { return &v }

func point(name string, ns, allocs float64) Point {
	return Point{Name: name, Iterations: 1000, NsPerOp: fp(ns), BytesPerOp: fp(0), AllocsPerOp: fp(allocs)}
}

func verdictOf(t *testing.T, rep *Report, name string) Row {
	t.Helper()
	for _, row := range rep.Rows {
		if row.Name == name {
			return row
		}
	}
	t.Fatalf("no row for %s", name)
	return Row{}
}

// TestInjectedRegressionFails is the gate's reason to exist: a >15% ns/op
// slowdown injected into an otherwise identical file must fail the
// comparison, and the verdict must say why.
func TestInjectedRegressionFails(t *testing.T) {
	oldPts := []Point{
		point("BenchmarkDecodeScratchClean", 85.75, 0),
		point("BenchmarkDecodeBatchClean", 35.5, 0),
	}
	newPts := []Point{
		point("BenchmarkDecodeScratchClean", 85.75*1.20, 0), // injected +20%
		point("BenchmarkDecodeBatchClean", 35.5, 0),
	}
	rep := Compare(oldPts, newPts, Options{})
	if !rep.Failed() {
		t.Fatal("a +20% ns/op regression passed the 15% gate")
	}
	row := verdictOf(t, rep, "BenchmarkDecodeScratchClean")
	if row.Verdict != Regression {
		t.Fatalf("verdict = %s, want %s", row.Verdict, Regression)
	}
	if !strings.Contains(row.Why, "threshold") {
		t.Fatalf("regression reason %q does not mention the threshold", row.Why)
	}
	if verdictOf(t, rep, "BenchmarkDecodeBatchClean").Verdict != OK {
		t.Fatal("unchanged benchmark did not come back ok")
	}
}

// TestWithinThresholdPasses: noise-level movement in both directions stays
// green.
func TestWithinThresholdPasses(t *testing.T) {
	oldPts := []Point{point("BenchmarkA", 100, 0), point("BenchmarkB", 100, 0)}
	newPts := []Point{point("BenchmarkA", 110, 0), point("BenchmarkB", 92, 0)}
	rep := Compare(oldPts, newPts, Options{})
	if rep.Failed() {
		t.Fatalf("+10%%/-8%% failed the 15%% gate: %+v", rep.Regressions())
	}
}

// TestAllocRegressionFails: a zero-alloc steady-state benchmark that
// starts allocating fails even if its ns/op got faster.
func TestAllocRegressionFails(t *testing.T) {
	oldPts := []Point{point("BenchmarkDecodeBatchClean", 35.5, 0)}
	newPts := []Point{point("BenchmarkDecodeBatchClean", 30.0, 2)}
	rep := Compare(oldPts, newPts, Options{})
	if !rep.Failed() {
		t.Fatal("allocs/op 0 -> 2 passed the gate")
	}
	row := verdictOf(t, rep, "BenchmarkDecodeBatchClean")
	if !strings.Contains(row.Why, "allocs/op") {
		t.Fatalf("reason %q does not mention allocs", row.Why)
	}
	// Already-allocating benchmarks may keep allocating.
	rep = Compare([]Point{point("BenchmarkX", 100, 2)}, []Point{point("BenchmarkX", 100, 3)}, Options{})
	if rep.Failed() {
		t.Fatal("allocs/op 2 -> 3 failed: only the 0 -> nonzero transition gates")
	}
}

// TestExcludePattern: the noisy exhibit regenerators are reported but can
// never fail the gate.
func TestExcludePattern(t *testing.T) {
	oldPts := []Point{point("BenchmarkFig71", 1e9, 0)}
	newPts := []Point{point("BenchmarkFig71", 3e9, 0)}
	rep := Compare(oldPts, newPts, Options{Exclude: regexp.MustCompile(DefaultExcludePattern)})
	if rep.Failed() {
		t.Fatal("excluded benchmark failed the gate")
	}
	if v := verdictOf(t, rep, "BenchmarkFig71").Verdict; v != Excluded {
		t.Fatalf("verdict = %s, want %s", v, Excluded)
	}
}

// TestAddedRemoved: benchmarks present in only one file are informational.
func TestAddedRemoved(t *testing.T) {
	oldPts := []Point{point("BenchmarkOld", 50, 0), point("BenchmarkBoth", 10, 0)}
	newPts := []Point{point("BenchmarkBoth", 10, 0), point("BenchmarkNew", 99, 0)}
	rep := Compare(oldPts, newPts, Options{})
	if rep.Failed() {
		t.Fatal("added/removed benchmarks failed the gate")
	}
	if v := verdictOf(t, rep, "BenchmarkOld").Verdict; v != Removed {
		t.Fatalf("BenchmarkOld verdict = %s, want %s", v, Removed)
	}
	if v := verdictOf(t, rep, "BenchmarkNew").Verdict; v != Added {
		t.Fatalf("BenchmarkNew verdict = %s, want %s", v, Added)
	}
}

// TestCPUSuffixNormalization: the same suite recorded on machines with
// different GOMAXPROCS still lines up.
func TestCPUSuffixNormalization(t *testing.T) {
	oldPts := []Point{point("BenchmarkDecode-8", 100, 0)}
	newPts := []Point{point("BenchmarkDecode-16", 130, 0)}
	rep := Compare(oldPts, newPts, Options{})
	if !rep.Failed() {
		t.Fatal("suffix-differing names did not match up (regression went unseen)")
	}
	if canonical("BenchmarkNoSuffix") != "BenchmarkNoSuffix" {
		t.Fatal("suffix-free name mangled")
	}
	if canonical("BenchmarkSub/case-4") != "BenchmarkSub/case" {
		t.Fatal("subbenchmark suffix not stripped")
	}
}

// TestFasterVerdict: large improvements are labelled, informationally.
func TestFasterVerdict(t *testing.T) {
	rep := Compare([]Point{point("BenchmarkA", 100, 0)}, []Point{point("BenchmarkA", 40, 0)}, Options{})
	if v := verdictOf(t, rep, "BenchmarkA").Verdict; v != Faster {
		t.Fatalf("verdict = %s, want %s", v, Faster)
	}
}

// TestParse covers the bench.sh wire format, including null metrics from
// benchmarks that did not report B/op.
func TestParse(t *testing.T) {
	pts, err := Parse([]byte(`[
  {"name": "BenchmarkA", "iterations": 5, "ns_per_op": 12.5, "bytes_per_op": null, "allocs_per_op": 0}
]`))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].Name != "BenchmarkA" || *pts[0].NsPerOp != 12.5 || pts[0].BytesPerOp != nil {
		t.Fatalf("parsed %+v", pts)
	}
	if _, err := Parse([]byte(`{"not": "an array"}`)); err == nil {
		t.Fatal("non-array JSON parsed")
	}
	if _, err := Parse([]byte(`[{"iterations": 5}]`)); err == nil {
		t.Fatal("nameless entry parsed")
	}
	if _, err := Load("testdata/definitely-missing.json"); err == nil {
		t.Fatal("missing file loaded")
	}
}

// TestCustomThreshold: the CLI's -threshold flag reaches the verdict.
func TestCustomThreshold(t *testing.T) {
	oldPts := []Point{point("BenchmarkA", 100, 0)}
	newPts := []Point{point("BenchmarkA", 108, 0)}
	if rep := Compare(oldPts, newPts, Options{Threshold: 0.05}); !rep.Failed() {
		t.Fatal("+8% passed a 5% threshold")
	}
	if rep := Compare(oldPts, newPts, Options{Threshold: 0.10}); rep.Failed() {
		t.Fatal("+8% failed a 10% threshold")
	}
}

// TestWriteReport pins the human-facing summary line.
func TestWriteReport(t *testing.T) {
	rep := Compare([]Point{point("BenchmarkA", 100, 0)}, []Point{point("BenchmarkA", 150, 0)}, Options{})
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "FAIL") || !strings.Contains(out, "REGRESSION") {
		t.Fatalf("report does not flag the failure:\n%s", out)
	}
	rep = Compare([]Point{point("BenchmarkA", 100, 0)}, []Point{point("BenchmarkA", 100, 0)}, Options{})
	buf.Reset()
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "PASS") {
		t.Fatalf("clean report does not say PASS:\n%s", buf.String())
	}
}

// TestHostStamp reads each file's host from the raw .txt beside it and
// the GOMAXPROCS suffix of its names, prints both hosts first and adds
// one "hosts differ" line only when they are known to differ, without
// touching the verdict.
func TestHostStamp(t *testing.T) {
	dir := t.TempDir()
	write := func(name, txt string) string {
		t.Helper()
		path := filepath.Join(dir, name+".json")
		if txt != "" {
			if err := os.WriteFile(filepath.Join(dir, name+".txt"), []byte(txt), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	const header = "goos: linux\ngoarch: amd64\npkg: arcc/internal/gf\n"
	slow := write("slow", header+"cpu: Intel(R) Xeon(R) Processor @ 2.10GHz\nBenchmarkA \t 10\t 100 ns/op\n")
	fast := write("fast", header+"cpu: Intel(R) Xeon(R) Processor\nBenchmarkA-2 \t 10\t 100 ns/op\n")
	bare := write("bare", "")
	serial := []Point{point("BenchmarkA", 100, 0)}
	parallel := []Point{point("BenchmarkA-2", 100, 0)}

	for _, tc := range []struct {
		name        string
		old, new    Host
		wantOld     string
		wantNew     string
		wantDiffers bool
	}{
		{"cpu and procs differ", LoadHost(slow, serial), LoadHost(fast, parallel),
			"Intel(R) Xeon(R) Processor @ 2.10GHz, GOMAXPROCS 1", "Intel(R) Xeon(R) Processor, GOMAXPROCS 2", true},
		{"same host", LoadHost(fast, parallel), LoadHost(fast, parallel),
			"Intel(R) Xeon(R) Processor, GOMAXPROCS 2", "Intel(R) Xeon(R) Processor, GOMAXPROCS 2", false},
		{"procs differ", LoadHost(fast, serial), LoadHost(fast, parallel),
			"Intel(R) Xeon(R) Processor, GOMAXPROCS 1", "Intel(R) Xeon(R) Processor, GOMAXPROCS 2", true},
		{"no raw text", LoadHost(bare, parallel), LoadHost(fast, parallel),
			"unknown cpu, GOMAXPROCS 2", "Intel(R) Xeon(R) Processor, GOMAXPROCS 2", false},
	} {
		rep := Compare(serial, parallel, Options{})
		rep.OldHost, rep.NewHost = tc.old, tc.new
		var buf bytes.Buffer
		if err := rep.Write(&buf); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(buf.String(), "\n")
		if lines[0] != "old host: "+tc.wantOld || lines[1] != "new host: "+tc.wantNew {
			t.Errorf("%s: header\n%s\nwant hosts %q and %q", tc.name, buf.String(), tc.wantOld, tc.wantNew)
		}
		if got := strings.Count(buf.String(), "hosts differ"); got != map[bool]int{false: 0, true: 1}[tc.wantDiffers] {
			t.Errorf("%s: %d \"hosts differ\" lines, want differ=%v:\n%s", tc.name, got, tc.wantDiffers, buf.String())
		}
		if rep.Failed() || !strings.Contains(buf.String(), "benchcmp: PASS") {
			t.Errorf("%s: the host stamp changed the verdict:\n%s", tc.name, buf.String())
		}
	}
	if h := LoadHost(bare, nil); h != (Host{}) {
		t.Errorf("empty file without raw text: host %+v, want unknown", h)
	}
}
