// Custom scenario: the declarative side of the exhibit API. A JSON file
// describes a sweep the paper never shipped — a denser channel (3 ranks
// of 12 devices), 3x fault rates with lane faults doubled on top,
// ARCC-on-LOT-ECC upgrade costs, an aggressive two-hour scrub, and a
// simulator sweep of two mixes at 25% of pages upgraded — and the
// experiments layer turns it into a runnable exhibit with the same
// structured reports as the paper's own figures.
//
// The same file works with the CLI:
//
//	arcc-experiments -scenario examples/custom-scenario/scenario.json -quick
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"arcc/internal/exhibit"
	"arcc/internal/experiments"
)

func main() {
	// Load the declarative description. Unknown fields are rejected at
	// parse time, and unknown fault types or out-of-range values when the
	// exhibit is built, so a typo cannot silently run the wrong study.
	path := filepath.Join("examples", "custom-scenario", "scenario.json")
	if _, err := os.Stat(path); err != nil {
		path = "scenario.json" // run from the example's own directory
	}
	sc, err := exhibit.LoadScenario(path)
	if err != nil {
		log.Fatal(err)
	}

	// Check it, turn it into an exhibit and run it exactly like a paper
	// figure: same Config, same cancellation, same report.
	ex, err := experiments.NewScenarioExhibit(sc)
	if err != nil {
		log.Fatal(err)
	}
	cfg := exhibit.NewConfig(exhibit.WithQuick(true), exhibit.WithSeed(1))
	report, err := ex.Run(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}

	if err := (exhibit.TextRenderer{}).Render(os.Stdout, report); err != nil {
		log.Fatal(err)
	}
	fmt.Println()

	// The same report renders as JSON (typed rows under "data") or CSV —
	// pass -format json/csv to arcc-experiments for the full document.
	result := report.Data.(experiments.ScenarioResult)
	fmt.Printf("year-%d faulty pages %.3f%%, worst overhead %.3f%% — and the JSON/CSV renderers\n",
		sc.Years, result.FaultyFraction[sc.Years-1]*100, result.Overhead[sc.Years-1]*100)
	fmt.Println("serve the identical typed rows to machines.")
}
