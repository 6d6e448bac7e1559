// Command arcc-memsim runs one workload mix through the full-system
// simulator and reports IPC, DRAM power, and memory traffic for the chosen
// memory system and upgraded-page fraction, in any of the exhibit report
// formats.
//
// Usage:
//
//	arcc-memsim [-mix 1..12] [-system arcc|baseline] [-upgraded 0..1]
//	            [-instructions 1000000] [-seed 1] [-format text|json|csv]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"arcc/internal/exhibit"
	"arcc/internal/sim"
	"arcc/internal/workload"
)

// memsimData is the typed payload of the memsim report: the run
// configuration echo plus the simulator result.
type memsimData struct {
	Mix        string     `json:"mix"`
	System     string     `json:"system"`
	Upgraded   float64    `json:"upgraded_fraction"`
	Benchmarks [4]string  `json:"benchmarks"`
	Result     sim.Result `json:"result"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "arcc-memsim:", err)
		os.Exit(1)
	}
}

func run() error {
	mixIdx := flag.Int("mix", 1, "workload mix (1..12, Table 7.3)")
	system := flag.String("system", "arcc", "memory system: arcc or baseline")
	upgraded := flag.Float64("upgraded", 0, "fraction of pages in upgraded mode")
	instructions := flag.Int64("instructions", 1_000_000, "instructions per core")
	seed := flag.Int64("seed", 1, "random seed")
	format := flag.String("format", "text", "output format: text, json, or csv")
	dumpTrace := flag.String("dump-trace", "", "write core 0's access stream to this file and exit")
	traceAccesses := flag.Int("trace-accesses", 100_000, "accesses to record with -dump-trace")
	replayTrace := flag.String("trace", "", "replay this recorded trace on core 0 instead of its generator")
	flag.Parse()

	switch {
	case *mixIdx < 1 || *mixIdx > 12:
		return fmt.Errorf("mix must be 1..12")
	case !(*upgraded >= 0 && *upgraded <= 1):
		return fmt.Errorf("upgraded fraction %v must be in [0,1]", *upgraded)
	case *instructions <= 0:
		return fmt.Errorf("instructions must be positive (got %d)", *instructions)
	case *traceAccesses <= 0:
		return fmt.Errorf("trace-accesses must be positive (got %d)", *traceAccesses)
	}
	var sys sim.MemorySystem
	switch *system {
	case "arcc":
		sys = sim.ARCC
	case "baseline":
		sys = sim.Baseline
	default:
		return fmt.Errorf("unknown system %q", *system)
	}
	renderer, err := exhibit.RendererFor(*format)
	if err != nil {
		return err
	}

	mix := workload.Mixes()[*mixIdx-1]
	if *dumpTrace != "" {
		f, err := os.Create(*dumpTrace)
		if err != nil {
			return err
		}
		stream := mix.Benchmarks[0].NewStream(*seed, 0)
		if _, err := workload.Record(f, stream, *traceAccesses); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %d accesses of %s (core 0 of %s) to %s\n",
			*traceAccesses, mix.Benchmarks[0].Name, mix.Name, *dumpTrace)
		return nil
	}
	cfg := sim.DefaultConfig(mix, sys)
	cfg.UpgradedFraction = *upgraded
	cfg.InstructionsPerCore = *instructions
	cfg.Seed = *seed
	if *replayTrace != "" {
		src, err := workload.LoadTraceFile(*replayTrace)
		if err != nil {
			return err
		}
		cfg.Sources[0] = src
		fmt.Fprintf(os.Stderr, "replaying %d recorded accesses on core 0\n", src.Len())
	}
	r := sim.Run(cfg)

	return renderer.Render(os.Stdout, memsimReport(mix, sys, *upgraded, *instructions, *seed, r))
}

// memsimReport wraps one simulator run in an exhibit report so every
// renderer applies.
func memsimReport(mix workload.Mix, sys sim.MemorySystem, upgraded float64, instructions, seed int64, r sim.Result) *exhibit.Report {
	data := memsimData{Mix: mix.Name, System: sys.String(), Upgraded: upgraded, Result: r}
	for i, b := range mix.Benchmarks {
		data.Benchmarks[i] = b.Name
	}
	table := exhibit.Table{Name: "run",
		Columns: []string{"mix", "system", "upgraded_fraction", "ipc_sum", "power_mw",
			"llc_hit_rate", "mem_reads", "mem_writes", "upgraded_access_fraction", "elapsed_dram_cycles"},
		Rows: [][]string{exhibit.Row(mix.Name, sys.String(), exhibit.Ftoa(upgraded),
			exhibit.Ftoa(r.IPCSum), exhibit.Ftoa(r.PowerMW), exhibit.Ftoa(r.LLCHitRate),
			fmt.Sprint(r.MemReads), fmt.Sprint(r.MemWrites),
			exhibit.Ftoa(r.UpgradedAccessFraction), fmt.Sprint(r.ElapsedDRAMCycles))}}
	return &exhibit.Report{
		Exhibit: "memsim",
		Title:   fmt.Sprintf("Simulator run: %s on %s", mix.Name, sys),
		Meta:    exhibit.Meta{Seed: seed},
		Data:    data,
		Tables:  []exhibit.Table{table},
		Text: func(w io.Writer) {
			fmt.Fprintf(w, "%s on %s (upgraded fraction %.4f, %d instructions/core)\n", mix.Name, sys, upgraded, instructions)
			for i, b := range mix.Benchmarks {
				fmt.Fprintf(w, "  core %d: %-12s IPC %.3f\n", i, b.Name, r.PerCoreIPC[i])
			}
			fmt.Fprintf(w, "  IPC (sum):          %.3f\n", r.IPCSum)
			fmt.Fprintf(w, "  DRAM power:         %.1f mW\n", r.PowerMW)
			fmt.Fprintf(w, "  LLC hit rate:       %.3f\n", r.LLCHitRate)
			fmt.Fprintf(w, "  memory reads:       %d\n", r.MemReads)
			fmt.Fprintf(w, "  memory writes:      %d\n", r.MemWrites)
			fmt.Fprintf(w, "  upgraded accesses:  %.1f%%\n", r.UpgradedAccessFraction*100)
			fmt.Fprintf(w, "  elapsed DRAM cycles: %d\n", r.ElapsedDRAMCycles)
		},
	}
}
