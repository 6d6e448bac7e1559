package exhibit

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"testing"
)

// codecResult stands in for an exhibit's typed rows, with the encoding
// hazards the real ones carry: shortest-round-trip floats, HTML-escapable
// strings, nested structure.
type codecResult struct {
	Mixes  []string  `json:"mixes"`
	Values []float64 `json:"values"`
	Note   string    `json:"note"`
}

func codecReport() *Report {
	return &Report{
		Exhibit: "codec-test",
		Title:   "Codec round trip",
		Meta:    Meta{Seed: 42, Quick: true, Trials: 1000, Parallel: 3},
		Data: codecResult{
			Mixes:  []string{"Mix1", "Mix10"},
			Values: []float64{0.1, 1.0 / 3.0, math.SmallestNonzeroFloat64, 1e300, -0.0},
			Note:   `escaping <b>&"quotes"</b>`,
		},
		Tables: []Table{
			{Name: "main", Columns: []string{"mix", "value"}, Rows: [][]string{
				Row("Mix1", Ftoa(1.0/3.0)),
				Row("Mix10", Ftoa(1e300)),
			}},
			{Name: "aux", Columns: []string{"k"}, Rows: [][]string{Row("v")}},
		},
		Text: func(w io.Writer) {
			fmt.Fprintf(w, "codec-test: %v then %v\n", 1.0/3.0, 1e300)
		},
	}
}

func renderAll(t *testing.T, r *Report) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, format := range formats {
		ren, err := RendererFor(format)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ren.Render(&buf, r); err != nil {
			t.Fatalf("%s render: %v", format, err)
		}
		out[format] = buf.String()
	}
	return out
}

func TestReportCodecRendersByteIdentical(t *testing.T) {
	orig := codecReport()
	want := renderAll(t, orig)

	blob, err := EncodeReport(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeReport(blob)
	if err != nil {
		t.Fatal(err)
	}
	got := renderAll(t, back)
	for _, format := range formats {
		if got[format] != want[format] {
			t.Errorf("%s rendering changed across the codec:\n--- live ---\n%s\n--- decoded ---\n%s",
				format, want[format], got[format])
		}
	}
}

func TestReportCodecSurvivesSecondTrip(t *testing.T) {
	// A decoded report (RawMessage data, captured text) must re-encode to
	// the same bytes: the store rewrites result files on compaction.
	blob, err := EncodeReport(codecReport())
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeReport(blob)
	if err != nil {
		t.Fatal(err)
	}
	blob2, err := EncodeReport(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Errorf("second encode differs:\n%s\nvs\n%s", blob, blob2)
	}
}

func TestReportCodecNoText(t *testing.T) {
	r := codecReport()
	r.Text = nil
	blob, err := EncodeReport(r)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeReport(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.Text != nil {
		t.Error("decoded report invented a text rendering")
	}
}

func TestReportCodecMetaRestampable(t *testing.T) {
	// The server restamps Meta when serving a cached result under a new
	// config; the decoded report must carry the new stamp everywhere.
	blob, err := EncodeReport(codecReport())
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeReport(blob)
	if err != nil {
		t.Fatal(err)
	}
	back.Meta = Meta{Seed: 7, Parallel: 8}
	rendered := renderAll(t, back)["json"]
	if !bytes.Contains([]byte(rendered), []byte(`"seed": 7`)) {
		t.Errorf("restamped seed missing from JSON:\n%s", rendered)
	}
}

// FuzzDecodeReport feeds arbitrary bytes to the result-store decoder. It
// must never panic; every format must render an accepted report to an
// error or to output (a text rendering captured empty renders empty);
// and re-encoding it must give a blob that decodes and re-encodes to the
// same bytes.
func FuzzDecodeReport(f *testing.F) {
	noText, noTables := codecReport(), codecReport()
	noText.Text = nil
	noTables.Tables = nil
	for _, r := range []*Report{codecReport(), noText, noTables} {
		blob, err := EncodeReport(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		r, err := DecodeReport(blob)
		if err != nil {
			return
		}
		for _, format := range formats {
			ren, err := RendererFor(format)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := ren.Render(&buf, r); err != nil || buf.Len() > 0 {
				continue
			}
			if format == "text" {
				var text bytes.Buffer
				r.Text(&text)
				if text.Len() == 0 {
					continue
				}
			}
			t.Errorf("%s rendering wrote nothing and returned no error", format)
		}
		blob2, err := EncodeReport(r)
		if err != nil {
			t.Fatalf("re-encoding a decoded report: %v", err)
		}
		back, err := DecodeReport(blob2)
		if err != nil {
			t.Fatalf("decoding a re-encoded report: %v\n%s", err, blob2)
		}
		blob3, err := EncodeReport(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob2, blob3) {
			t.Errorf("re-encoding is not stable:\n%s\nvs\n%s", blob2, blob3)
		}
	})
}
