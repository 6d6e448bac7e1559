// Command arcc-experiments regenerates the tables and figures of the ARCC
// paper's evaluation through the unified exhibit API, and runs
// user-defined declarative scenarios.
//
// Usage:
//
//	arcc-experiments [-list] [-exhibit all|name[,name...]] [-format text|json|csv]
//	                 [-scenario file.json] [-trace file.trc] [-quick] [-seed N]
//	                 [-parallel N] [-trials N] [-accel none|conditional|tilt:F]
//	                 [-ci] [-progress] [-timeout dur]
//
// Without flags it reproduces everything at paper scale (10 000 Monte Carlo
// channels, 1 M instructions per core), which takes a few minutes; -quick
// cuts the volume for a fast look. -list names every registered exhibit;
// -exhibit takes one or more names (comma-separated; "ablations" expands
// to the three ablation exhibits), and an unknown name is a usage error
// that lists what is registered. -format selects the renderer: text (the
// paper's layout, byte-identical to the golden files), json (structured
// reports with typed rows; several exhibits form a JSON array), or csv.
// -scenario runs a declarative sweep loaded from a JSON file (see the
// exhibit.Scenario schema) instead of the registered exhibits; -trace
// overrides the scenario's trace field, replaying the named trace file on
// all four simulated cores as an extra "trace" row of the simulator sweep.
//
// The Monte Carlo sweeps and per-mix simulator runs fan out across the
// sharded engine (internal/mc): -parallel sets the worker count (0 = all
// CPUs, 1 = serial) without changing any number — output is bit-identical
// at any parallelism for a given seed. -trials overrides the Monte Carlo
// channel count, and -progress reports completion counts on stderr as
// each exhibit computes. Interrupting the run (Ctrl-C, SIGTERM) or hitting
// -timeout cancels the context; the engine stops within one shard.
//
// With -scenario, -accel sets the scenario's accel field (rare-event
// acceleration of the lifetime Monte Carlos: "conditional" requires at
// least one fault per trial, "tilt:F" scales the fault rates by F; both
// weight trials by their exact likelihood ratio, so estimates stay
// unbiased and reach a target confidence interval with far fewer trials
// at rare fault rates) and -ci sets its ci field (95% confidence
// intervals and effective sample sizes alongside the means). Like -trace
// they apply before the scenario is checked, so they pass the same bounds
// as the file's own fields. Without -scenario they are usage errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"arcc/internal/exhibit"
	"arcc/internal/experiments"
	"arcc/internal/mc"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "arcc-experiments: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	list := flag.Bool("list", false, "list registered exhibits and exit")
	name := flag.String("exhibit", "all", "which exhibit(s) to regenerate: all, or comma-separated names (see -list)")
	format := flag.String("format", "text", "output format: text, json, or csv")
	scenario := flag.String("scenario", "", "run a declarative scenario from this JSON file instead of registered exhibits")
	trace := flag.String("trace", "", "with -scenario: replay this trace file (workload trace format) in the scenario's simulator sweep, overriding its trace field")
	quick := flag.Bool("quick", false, "reduced simulation volume")
	seed := flag.Int64("seed", 1, "random seed")
	parallel := flag.Int("parallel", 0, "Monte Carlo / simulation workers (0 = all CPUs, 1 = serial)")
	trials := flag.Int("trials", 0, "override the Monte Carlo channel count (0 = profile default)")
	accel := flag.String("accel", "", "with -scenario: rare-event acceleration (none, conditional, or tilt:<factor>), overriding its accel field")
	ci := flag.Bool("ci", false, "with -scenario: report 95% confidence intervals and effective sample size, setting its ci field")
	progress := flag.Bool("progress", false, "report per-exhibit progress on stderr")
	timeout := flag.Duration("timeout", 0, "cancel the run after this duration (0 = no limit)")
	flag.Parse()

	if *list {
		for _, e := range exhibit.All() {
			fmt.Printf("%-18s %s\n", e.Name, e.Describe)
		}
		return nil
	}

	renderer, err := exhibit.RendererFor(*format)
	if err != nil {
		return err
	}
	if *trials < 0 {
		return fmt.Errorf("-trials %d is negative (0 keeps the profile default)", *trials)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// One invocation may run several Fig 7.x exhibits over the same
	// simulator grid; each distinct run is simulated once.
	ctx = experiments.WithRunMemo(ctx)

	// cfg builds per-exhibit options so each exhibit gets its own progress
	// line state: one exhibit runs several engine jobs back to back (per
	// rate factor, per sweep) and the printer resets itself at each job.
	cfg := func(key string) exhibit.Config {
		opts := []exhibit.Option{
			exhibit.WithQuick(*quick),
			exhibit.WithSeed(*seed),
			exhibit.WithParallel(*parallel),
			exhibit.WithTrials(*trials),
		}
		if *progress {
			opts = append(opts, exhibit.WithProgress(mc.NewProgressPrinter(os.Stderr, key)))
		}
		return exhibit.NewConfig(opts...)
	}

	var exhibits []exhibit.Exhibit
	if *scenario != "" {
		sc, err := exhibit.LoadScenario(*scenario)
		if err != nil {
			return err
		}
		if *trace != "" {
			sc.Trace = *trace
		}
		if *accel != "" {
			sc.Accel = *accel
		}
		sc.CI = sc.CI || *ci
		ex, err := experiments.NewScenarioExhibit(sc)
		if err != nil {
			return fmt.Errorf("%w (in %s)", err, *scenario)
		}
		exhibits = []exhibit.Exhibit{ex}
	} else {
		switch {
		case *trace != "":
			return fmt.Errorf("-trace requires -scenario (the trace drives the scenario's simulator sweep)")
		case *accel != "" || *ci:
			return fmt.Errorf("-accel and -ci require -scenario (no registered exhibit reads them)")
		}
		exhibits, err = selectExhibits(*name)
		if err != nil {
			return err
		}
	}

	// Reports stream as each exhibit completes — a multi-minute `-exhibit
	// all` run shows results incrementally, and an error (or Ctrl-C)
	// mid-run keeps everything already computed. Text keeps the
	// historical layout (one blank line after every exhibit), csv
	// separates reports with a blank line, and several json reports form
	// an array that is closed even on an early exit so the partial
	// output stays parseable.
	out := os.Stdout
	jsonArray := *format == "json" && len(exhibits) != 1
	if jsonArray {
		fmt.Fprintln(out, "[")
	}
	closeArray := func() {
		if jsonArray {
			fmt.Fprintln(out, "]")
		}
	}
	for i, e := range exhibits {
		r, err := e.Run(ctx, cfg(e.Name))
		if err != nil {
			closeArray()
			return fmt.Errorf("exhibit %s: %w", e.Name, err)
		}
		if i > 0 {
			switch *format {
			case "json":
				fmt.Fprintln(out, ",")
			case "csv":
				fmt.Fprintln(out)
			}
		}
		if err := renderer.Render(out, r); err != nil {
			closeArray()
			return err
		}
		if *format == "text" {
			fmt.Fprintln(out)
		}
	}
	closeArray()
	return nil
}

// selectExhibits resolves the -exhibit flag: "all", a single name, or a
// comma-separated list, with "ablations" kept as an alias for the three
// ablation exhibits. An unknown name is a usage error listing the
// registry, so typos cannot fall through silently.
func selectExhibits(arg string) ([]exhibit.Exhibit, error) {
	want := strings.ToLower(strings.TrimSpace(arg))
	if want == "all" {
		return exhibit.All(), nil
	}
	var out []exhibit.Exhibit
	for _, name := range strings.Split(want, ",") {
		name = strings.TrimSpace(name)
		if name == "ablations" {
			for _, alias := range []string{"ablation-scrub", "ablation-llc", "ablation-pairing"} {
				e, _ := exhibit.Lookup(alias)
				out = append(out, e)
			}
			continue
		}
		e, ok := exhibit.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("unknown exhibit %q; registered exhibits:\n  %s",
				name, strings.Join(exhibit.Names(), "\n  "))
		}
		out = append(out, e)
	}
	return out, nil
}
