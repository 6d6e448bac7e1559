// Server lifetime: plays seven years of field-study fault arrivals against
// the reliability models, showing how much of the memory ends up upgraded
// and what it costs — the Fig 3.1 / Fig 7.4 story for a single server.
// The fleet view runs as a declarative scenario through the unified
// exhibit API: the same description a JSON file (or arcc-experiments
// -scenario) would carry, built here in code.
package main

import (
	"context"
	"fmt"
	"log"

	"arcc/internal/exhibit"
	"arcc/internal/experiments"
	"arcc/internal/faultmodel"
	"arcc/internal/rng"
)

func main() {
	const years = 7
	var src rng.Source
	src.Seed(2026)
	shape := faultmodel.ARCCChannelShape()
	rates := faultmodel.FieldStudyRates()

	// One concrete server: sample a single channel's fault history.
	fmt.Println("one server's fault history (72 devices, 7 years):")
	sampler := faultmodel.NewSampler(rates.Scale(20), 2, 36, years) // 20x rates so the story has events
	arrivals, _ := sampler.SampleInto(&src, nil)
	if len(arrivals) == 0 {
		fmt.Println("  (no faults)")
	}
	upgradedFraction := 0.0
	for _, a := range arrivals {
		span := shape.UpgradedFraction(a.Type)
		upgradedFraction += span
		if upgradedFraction > 1 {
			upgradedFraction = 1
		}
		fmt.Printf("  year %.2f: %-7v fault (rank %2d, device %2d) -> +%.4f%% of pages upgraded (total %.4f%%)\n",
			a.AtHours/faultmodel.HoursPerYear, a.Type, a.Rank, a.Device, span*100, upgradedFraction*100)
	}

	// The fleet view, declaratively: a scenario describing the baseline
	// 72-device channel, run through the exhibit API like any paper
	// figure. A second scenario at 4x rates gives the sensitivity column.
	fleet := func(factor float64) experiments.ScenarioResult {
		s := exhibit.DefaultScenario()
		s.Name = fmt.Sprintf("fleet-%gx", factor)
		s.RateFactor = factor
		s.DevicesPerRank = 36
		s.Years = years
		s.Trials = 5000
		ex, err := experiments.NewScenarioExhibit(s)
		if err != nil {
			log.Fatal(err)
		}
		report, err := ex.Run(context.Background(), exhibit.NewConfig(exhibit.WithSeed(2026)))
		if err != nil {
			log.Fatal(err)
		}
		return report.Data.(experiments.ScenarioResult)
	}
	at1, at4 := fleet(1), fleet(4)

	fmt.Printf("\nfleet average over %d channels (1x field-study rates):\n", at1.Scenario.Trials)
	fmt.Printf("  %-6s %-12s %-12s\n", "year", "1x rates", "4x rates")
	for y := 0; y < years; y++ {
		fmt.Printf("  %-6d %10.4f%% %10.4f%%\n", y+1, at1.FaultyFraction[y]*100, at4.FaultyFraction[y]*100)
	}

	// What it costs: worst-case lifetime power overhead (Fig 7.4 style,
	// chipkill upgrade factor 2), from the same scenario report.
	fmt.Printf("\nworst-case average power overhead (vs fault-free ARCC):\n")
	for y := 0; y < years; y++ {
		fmt.Printf("  year %d: %.3f%%\n", y+1, at1.Overhead[y]*100)
	}
	fmt.Printf("\neven at year %d the overhead is tiny next to the ~37%% fault-free saving —\n", years)
	fmt.Println("that asymmetry is the entire ARCC bet.")
}
