package workload

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// recordedTrace returns a buffer holding n recorded accesses of a benchmark.
func recordedTrace(t *testing.T, n int) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	s := ByName("mcf2006").NewStream(7, 0)
	if _, err := Record(&buf, s, n); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func TestTraceSourceReplaysAndWraps(t *testing.T) {
	const n = 200
	buf := recordedTrace(t, n)
	src, err := LoadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if src.Len() != n {
		t.Fatalf("Len = %d, want %d", src.Len(), n)
	}

	ref := ByName("mcf2006").NewStream(7, 0)
	first := make([]Access, n)
	for i := 0; i < n; i++ {
		first[i] = src.Next()
		if want := ref.Next(); first[i] != want {
			t.Fatalf("access %d: %+v != %+v", i, first[i], want)
		}
	}
	// Past the end the source wraps to the beginning.
	if got := src.Next(); got != first[0] {
		t.Fatalf("wrap-around returned %+v, want %+v", got, first[0])
	}
}

func TestTraceSourceClone(t *testing.T) {
	src, err := LoadTrace(bytes.NewReader(recordedTrace(t, 100).Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ref := src.Clone()
	want := []Access{ref.Next(), ref.Next(), ref.Next()}
	src.Next()
	src.Next()

	// A clone starts at the beginning regardless of the parent's cursor.
	c := src.Clone()
	for i, w := range want[:2] {
		if got := c.Next(); got != w {
			t.Fatalf("clone access %d: %+v, want %+v", i, got, w)
		}
	}
	// Cursors are independent: the clone's reads did not move the parent.
	if got := src.Next(); got != want[2] {
		t.Fatalf("parent third access %+v, want %+v", got, want[2])
	}
	if got := c.Next(); got != want[2] {
		t.Fatalf("clone third access %+v, want %+v", got, want[2])
	}
}

func TestLoadTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.trc")
	if err := os.WriteFile(path, recordedTrace(t, 50).Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := LoadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if src.Len() != 50 {
		t.Fatalf("Len = %d, want 50", src.Len())
	}
	if _, err := LoadTraceFile(filepath.Join(t.TempDir(), "missing.trc")); err == nil {
		t.Fatal("missing file loaded without error")
	}
}

func TestLoadTraceRejectsEmptyAndGarbage(t *testing.T) {
	var empty bytes.Buffer
	tw, err := NewTraceWriter(&empty)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTrace(bytes.NewReader(empty.Bytes())); err == nil {
		t.Fatal("header-only trace loaded without error")
	}
	if _, err := LoadTrace(bytes.NewReader([]byte("not a trace"))); err == nil {
		t.Fatal("garbage loaded without error")
	}
}

func TestTenantResolveAndMapping(t *testing.T) {
	// Overrides apply on top of the named profile.
	b, err := Tenant{Benchmark: "mcf2006", FootprintLines: 1 << 30, APKI: 99}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if b.FootprintLines != 1<<30 || b.APKI != 99 {
		t.Fatalf("overrides not applied: %+v", b)
	}
	base := ByName("mcf2006")
	b2, err := Tenant{Benchmark: "mcf2006"}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if b2.FootprintLines != base.FootprintLines || b2.APKI != base.APKI {
		t.Fatalf("zero overrides changed the profile: %+v vs %+v", b2, base)
	}

	if _, err := (Tenant{Benchmark: "nosuch"}).Resolve(); err == nil {
		t.Fatal("unknown benchmark resolved")
	}
	if _, err := (Tenant{Benchmark: "mcf2006", FootprintLines: -1}).Resolve(); err == nil {
		t.Fatal("negative footprint resolved")
	}

	// Round-robin mapping: two tenants alternate across the four cores.
	four, err := TenantBenchmarks([]Tenant{{Benchmark: "mcf2006"}, {Benchmark: "swim"}})
	if err != nil {
		t.Fatal(err)
	}
	if four[0].Name != "mcf2006/t0" || four[1].Name != "swim/t1" ||
		four[2].Name != "mcf2006/t0" || four[3].Name != "swim/t1" {
		t.Fatalf("round-robin mapping wrong: %v %v %v %v",
			four[0].Name, four[1].Name, four[2].Name, four[3].Name)
	}
	if _, err := TenantBenchmarks(nil); err == nil {
		t.Fatal("zero tenants accepted")
	}
	if _, err := TenantBenchmarks(make([]Tenant, 5)); err == nil {
		t.Fatal("five tenants accepted")
	}
}
