package exhibit

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
)

// Renderer serializes a report to one output format.
type Renderer interface {
	Render(w io.Writer, r *Report) error
}

// RendererFor maps a format name (text, json, csv) to its renderer.
func RendererFor(format string) (Renderer, error) {
	switch format {
	case "text":
		return TextRenderer{}, nil
	case "json":
		return JSONRenderer{}, nil
	case "csv":
		return CSVRenderer{}, nil
	}
	return nil, fmt.Errorf("exhibit: unknown format %q (have text, json, csv)", format)
}

// TextRenderer writes the exhibit's legacy human rendering — byte-identical
// to the testdata golden files.
type TextRenderer struct{}

// Render implements Renderer.
func (TextRenderer) Render(w io.Writer, r *Report) error {
	if r.Text == nil {
		return fmt.Errorf("exhibit: report %q has no text rendering", r.Exhibit)
	}
	r.Text(w)
	return nil
}

// JSONRenderer writes the report as one indented JSON object whose "data"
// field is the exhibit's typed rows.
type JSONRenderer struct{}

// Render implements Renderer.
func (JSONRenderer) Render(w io.Writer, r *Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// CSVRenderer writes the report's flat tables. Each table is emitted as a
// header block — one record naming the exhibit and table, one record of
// column headers — followed by the data rows, with a blank line between
// tables so one stream can carry a whole run.
type CSVRenderer struct{}

// Render implements Renderer.
func (CSVRenderer) Render(w io.Writer, r *Report) error {
	if len(r.Tables) == 0 {
		return fmt.Errorf("exhibit: report %q has no tabular projection", r.Exhibit)
	}
	cw := csv.NewWriter(w)
	for ti, t := range r.Tables {
		if ti > 0 {
			cw.Flush()
			if _, err := io.WriteString(w, "\n"); err != nil {
				return err
			}
		}
		if err := cw.Write([]string{"exhibit", r.Exhibit, t.Name}); err != nil {
			return err
		}
		if err := cw.Write(t.Columns); err != nil {
			return err
		}
		for _, row := range t.Rows {
			if len(row) != len(t.Columns) {
				return fmt.Errorf("exhibit: %s/%s row has %d cells for %d columns", r.Exhibit, t.Name, len(row), len(t.Columns))
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
