// Command arcc-benchcmp is the CLI for the performance-trajectory gate:
// it compares two benchmark files recorded by scripts/bench.sh and exits
// nonzero when the newer one regresses the hot path (>15% ns/op slowdown
// by default, or a zero-alloc benchmark starting to allocate). The report
// opens with the host each file was recorded on, read from the raw .txt
// beside it, and says when the two differ.
//
// Usage:
//
//	arcc-benchcmp [-threshold 0.15] [-exclude '^BenchmarkFig'] old.json new.json
//
// CI runs it on every push, diffing the PR's fresh BENCH_<ref>.json
// against the newest BENCH_PR<N>.json recorded in the repository.
package main

import (
	"flag"
	"fmt"
	"os"
	"regexp"

	"arcc/internal/benchcmp"
)

func main() {
	threshold := flag.Float64("threshold", benchcmp.DefaultThreshold,
		"fractional ns/op slowdown that fails the gate")
	exclude := flag.String("exclude", benchcmp.DefaultExcludePattern,
		"regexp of benchmark names reported but never gating (empty disables)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: %s [flags] old.json new.json\n", os.Args[0])
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}

	var excludeRe *regexp.Regexp
	if *exclude != "" {
		var err error
		if excludeRe, err = regexp.Compile(*exclude); err != nil {
			fmt.Fprintf(os.Stderr, "arcc-benchcmp: bad -exclude: %v\n", err)
			os.Exit(2)
		}
	}

	oldPts, err := benchcmp.Load(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "arcc-benchcmp: %v\n", err)
		os.Exit(2)
	}
	newPts, err := benchcmp.Load(flag.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "arcc-benchcmp: %v\n", err)
		os.Exit(2)
	}

	rep := benchcmp.Compare(oldPts, newPts, benchcmp.Options{Threshold: *threshold, Exclude: excludeRe})
	rep.OldHost = benchcmp.LoadHost(flag.Arg(0), oldPts)
	rep.NewHost = benchcmp.LoadHost(flag.Arg(1), newPts)
	if err := rep.Write(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "arcc-benchcmp: %v\n", err)
		os.Exit(2)
	}
	if rep.Failed() {
		os.Exit(1)
	}
}
