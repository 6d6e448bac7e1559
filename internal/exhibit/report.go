package exhibit

import (
	"io"
	"strconv"
)

// Meta records the run parameters that shaped a report, so a serialized
// report is self-describing and reproducible.
type Meta struct {
	Seed     int64 `json:"seed"`
	Quick    bool  `json:"quick"`
	Trials   int   `json:"trials,omitempty"`
	Parallel int   `json:"parallel,omitempty"`
}

// MetaFor derives the report metadata from the config an exhibit ran under.
func MetaFor(cfg Config) Meta {
	return Meta{Seed: cfg.SeedOrDefault(), Quick: cfg.Quick, Trials: cfg.Trials, Parallel: cfg.Parallel}
}

// Report is the structured outcome of one exhibit run.
//
// Data holds the exhibit's typed rows (e.g. experiments.Fig31Result) and
// is what the JSON renderer serializes — consumers get the exact result
// struct back with json.Unmarshal. Tables is the flat tabular projection
// of the same data that the CSV renderer emits. Text is the exact legacy
// rendering, byte-identical to the golden files.
type Report struct {
	Exhibit string            `json:"exhibit"`
	Title   string            `json:"title"`
	Meta    Meta              `json:"meta"`
	Data    any               `json:"data"`
	Tables  []Table           `json:"-"`
	Text    func(w io.Writer) `json:"-"`
}

// Table is one flat table of a report: a name (reports may carry several
// tables — a lifetime figure has one per estimate kind), column headers,
// and pre-formatted rows.
type Table struct {
	Name    string
	Columns []string
	Rows    [][]string
}

// Row collects cells into a table row; a convenience for projections.
func Row(cells ...string) []string { return cells }

// Ftoa formats a float for a CSV cell with the shortest representation
// that round-trips.
func Ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Itoa formats an int for a CSV cell.
func Itoa(v int) string { return strconv.Itoa(v) }
