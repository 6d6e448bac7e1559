package exhibit

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"strings"
	"testing"
)

// formats lists the renderer names RendererFor accepts.
var formats = []string{"text", "json", "csv"}

func testExhibit(name string) Exhibit {
	return Exhibit{
		Name:  name,
		Title: "Test " + name,
		Run: func(_ context.Context, cfg Config) (*Report, error) {
			return &Report{Exhibit: name, Title: "Test " + name, Meta: MetaFor(cfg)}, nil
		},
	}
}

func TestRegistry(t *testing.T) {
	before := len(All())
	Register(testExhibit("zz-test-registry"))
	if _, ok := Lookup("zz-test-registry"); !ok {
		t.Fatal("registered exhibit not found")
	}
	if _, ok := Lookup("zz-no-such"); ok {
		t.Fatal("lookup invented an exhibit")
	}
	all := All()
	if len(all) != before+1 || all[len(all)-1].Name != "zz-test-registry" {
		t.Fatalf("All() does not preserve registration order: %d entries", len(all))
	}
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() not sorted: %v", names)
		}
	}
	for _, bad := range []Exhibit{
		{},                              // no name, no run
		{Name: "zz-norun"},              // no run
		testExhibit("zz-test-registry"), // duplicate
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register(%q) did not panic", bad.Name)
				}
			}()
			Register(bad)
		}()
	}
}

func TestConfigOptions(t *testing.T) {
	calls := 0
	cfg := NewConfig(
		WithQuick(true),
		WithSeed(42),
		WithParallel(3),
		WithTrials(500),
		WithProgress(func(done, total int) { calls++ }),
	)
	if !cfg.Quick || cfg.Seed != 42 || cfg.Parallel != 3 || cfg.Trials != 500 {
		t.Fatalf("options not applied: %+v", cfg)
	}
	mco := cfg.MCOptions()
	if mco.Parallelism != 3 || mco.Progress == nil {
		t.Fatalf("MCOptions wrong: %+v", mco)
	}
	mco.Progress(1, 2)
	if calls != 1 {
		t.Fatal("progress adapter not wired")
	}
	if so := cfg.SimOptions(); so.ShardSize != 1 {
		t.Fatalf("SimOptions must use shard size 1, got %d", so.ShardSize)
	}
	if (Config{}).SeedOrDefault() != 1 {
		t.Fatal("zero seed must default to 1")
	}
	if (Config{}).MCOptions().Progress != nil {
		t.Fatal("nil Progress must map to nil engine callback")
	}
}

func TestRenderers(t *testing.T) {
	r := &Report{
		Exhibit: "demo",
		Title:   "Demo",
		Meta:    Meta{Seed: 1, Quick: true},
		Data:    map[string]int{"x": 1},
		Tables: []Table{
			{Name: "a", Columns: []string{"k", "v"}, Rows: [][]string{Row("x", "1")}},
			{Name: "b", Columns: []string{"n"}, Rows: [][]string{Row("2")}},
		},
		Text: func(w io.Writer) { io.WriteString(w, "demo text\n") },
	}

	var buf bytes.Buffer
	if err := (TextRenderer{}).Render(&buf, r); err != nil || buf.String() != "demo text\n" {
		t.Fatalf("text renderer: %q, %v", buf.String(), err)
	}

	buf.Reset()
	if err := (JSONRenderer{}).Render(&buf, r); err != nil {
		t.Fatal(err)
	}
	var wire map[string]any
	if err := json.Unmarshal(buf.Bytes(), &wire); err != nil {
		t.Fatalf("json renderer output invalid: %v", err)
	}
	if wire["exhibit"] != "demo" {
		t.Fatalf("json envelope wrong: %v", wire)
	}

	buf.Reset()
	if err := (CSVRenderer{}).Render(&buf, r); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"exhibit,demo,a", "k,v", "x,1", "exhibit,demo,b"} {
		if !strings.Contains(out, want) {
			t.Errorf("csv output missing %q:\n%s", want, out)
		}
	}

	// Mismatched row width is an error, not silent corruption.
	bad := &Report{Exhibit: "bad", Tables: []Table{{Name: "t", Columns: []string{"a", "b"}, Rows: [][]string{Row("only")}}}}
	if err := (CSVRenderer{}).Render(io.Discard, bad); err == nil {
		t.Fatal("csv renderer accepted a short row")
	}

	if _, err := RendererFor("yaml"); err == nil {
		t.Fatal("unknown format accepted")
	}
	for _, f := range formats {
		if _, err := RendererFor(f); err != nil {
			t.Errorf("format %q not accepted: %v", f, err)
		}
	}
}
