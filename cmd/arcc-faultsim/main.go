// Command arcc-faultsim runs the reliability Monte Carlo directly: the
// faulty-page fraction over a memory channel's lifetime (Fig 3.1), the
// worst-case lifetime overhead series (Fig 7.4 style), and the
// closed-form SDC/DUE models (Fig 6.1), with configurable fault rates,
// channel geometry, upgrade-cost scheme, and scrub interval.
//
// Usage:
//
//	arcc-faultsim [-years 7] [-trials 10000] [-factor 1] [-scrub 4]
//	              [-ranks 2] [-devices 36] [-scheme chipkill|lotecc]
//	              [-dram ddr2|ddr4|ddr5] [-width 4|8|16] [-trace file.trc]
//	              [-seed 1] [-parallel 0] [-progress] [-format text|json|csv]
//
// The command is a thin front end over the declarative scenario layer: the
// flags assemble an exhibit.Scenario (the same structure -scenario JSON
// files feed to arcc-experiments) and run it through the unified exhibit
// API, so the output is available in every report format. The Monte Carlo
// runs on the sharded engine (internal/mc): -parallel sets the worker
// count (0 = all CPUs, 1 = serial) and does not change the numbers —
// output is bit-identical at any parallelism for a given seed. -progress
// reports trial completion on stderr, and Ctrl-C cancels within one shard.
//
// -trace additionally replays a recorded access trace (the workload trace
// format arcc-memsim can record) through the full-system simulator as a
// "trace" row of the report's simulator sweep; -dram and -width select the
// memory generation and ARCC device width that simulator models.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"arcc/internal/exhibit"
	"arcc/internal/experiments"
	"arcc/internal/mc"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "arcc-faultsim: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	years := flag.Int("years", 7, "operational lifespan in years")
	trials := flag.Int("trials", 10000, "Monte Carlo trials (simulated channels)")
	factor := flag.Float64("factor", 1, "fault-rate factor over the field study")
	scrub := flag.Float64("scrub", 4, "scrub interval in hours")
	ranks := flag.Int("ranks", 2, "ranks per channel")
	devices := flag.Int("devices", 36, "devices per rank")
	scheme := flag.String("scheme", "chipkill", "upgraded-access cost model: chipkill (2x) or lotecc (4x)")
	dramGen := flag.String("dram", "", "simulator memory generation for -trace runs: ddr2, ddr4, or ddr5")
	width := flag.Int("width", 0, "ARCC device width in bits for -trace runs: 4, 8, or 16 (0 = 8)")
	trace := flag.String("trace", "", "replay this trace file (workload trace format) through the full-system simulator alongside the Monte Carlo")
	seed := flag.Int64("seed", 1, "random seed")
	parallel := flag.Int("parallel", 0, "Monte Carlo workers (0 = all CPUs, 1 = serial)")
	progress := flag.Bool("progress", false, "report Monte Carlo progress on stderr")
	format := flag.String("format", "text", "output format: text, json, or csv")
	flag.Parse()

	s := exhibit.DefaultScenario()
	s.Name = "faultsim"
	s.Description = fmt.Sprintf("%gx field-study rates over %d x %d-device ranks", *factor, *ranks, *devices)
	s.RateFactor = *factor
	s.Ranks = *ranks
	s.DevicesPerRank = *devices
	s.Years = *years
	s.Trials = *trials
	s.ScrubHours = *scrub
	s.Scheme = *scheme
	s.DRAM = *dramGen
	s.Width = *width
	s.Trace = *trace
	ex, err := experiments.NewScenarioExhibit(s)
	if err != nil {
		return err
	}

	renderer, err := exhibit.RendererFor(*format)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := []exhibit.Option{exhibit.WithSeed(*seed), exhibit.WithParallel(*parallel)}
	if *progress {
		opts = append(opts, exhibit.WithProgress(mc.NewProgressPrinter(os.Stderr, "  mc")))
	}
	cfg := exhibit.NewConfig(opts...)

	report, err := ex.Run(ctx, cfg)
	if err != nil {
		return err
	}
	return renderer.Render(os.Stdout, report)
}
