// Package experiments contains one regenerator per table and figure of the
// paper's evaluation, each registered as an exhibit (internal/exhibit) in
// this package's init: callers discover them with exhibit.Lookup/All and
// run them with Exhibit.Run(ctx, cfg), which yields a structured Report
// renderable as text (byte-identical to the goldens), JSON, or CSV.
//
// The registry is the only way in: the fig/table functions behind each
// exhibit are unexported. Each computes its data with the packages that
// model the system and returns a typed result whose Fprint method renders
// the same rows/series the paper reports. The Monte Carlo and simulator
// fan-outs all honour context cancellation — a cancelled context aborts
// within one engine shard and surfaces mc.ErrCanceled.
package experiments

import (
	"fmt"
	"io"

	"arcc/internal/exhibit"
)

// instructions returns the per-core instruction budget for sim runs under
// cfg's profile.
func instructions(cfg exhibit.Config) int64 {
	if cfg.Quick {
		return 150_000
	}
	return 1_000_000
}

// channels returns the Monte Carlo channel count under cfg's profile.
func channels(cfg exhibit.Config) int {
	if cfg.Trials > 0 {
		return cfg.Trials
	}
	if cfg.Quick {
		return 1_000
	}
	return 10_000
}

// Seed-derivation tags: every Monte Carlo consumer derives its base seed
// as mc.DeriveSeed(cfg.SeedOrDefault(), tag+index), so no two exhibits (or
// rate factors within one exhibit) share an RNG stream.
const (
	tagFig31         uint64 = 0x3100
	tagLifetimeMeas  uint64 = 0x7400
	tagLifetimeWorst uint64 = 0x7500
	tagFig76         uint64 = 0x7600
	tagScenario      uint64 = 0x5C00
)

func fprintf(w io.Writer, format string, args ...any) {
	if _, err := fmt.Fprintf(w, format, args...); err != nil {
		panic(err) // experiment printers write to buffers/stdout; failure is programmer error
	}
}
