// Multilevel: walks the §5.1 extension — a four-channel memory whose pages
// can climb two upgrade levels: 2 check symbols (relaxed) -> 4 (upgraded)
// -> 8 (upgraded8, striped across all four channels). The second level
// survives two simultaneous whole-device failures in different channels,
// which the 4-check commercial code can only detect.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"

	"arcc/internal/core"
	"arcc/internal/dram"
	"arcc/internal/pagetable"
	"arcc/internal/scrub"
)

func main() {
	mem := core.New(core.Config{
		Pages:           64,
		Channels:        4,
		RanksPerChannel: 2,
		BanksPerDevice:  8,
		RowsPerBank:     2,
	})
	mem.RelaxAll()
	scrubber := scrub.New(mem, scrub.FourStep)

	// A working set on page 4.
	page := 4
	rng := rand.New(rand.NewSource(1))
	want := make([][]byte, core.LinesPerPage)
	for line := range want {
		want[line] = make([]byte, core.LineBytes)
		rng.Read(want[line])
		if err := mem.WriteLine(page, line, want[line]); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("page %d starts %v (one 18-device channel per access)\n", page, mem.PageMode(page))

	// Fault #1: a device dies in channel 1. The scrub upgrades the page.
	mem.InjectFault(1, 0, dram.Fault{Device: 6, Scope: dram.ScopeDevice, Mode: dram.StuckAt1})
	scrubber.FullScrub()
	fmt.Printf("after fault #1 + scrub: page is %v (two channels, 4 check symbols)\n", mem.PageMode(page))

	// Fault #2: a device dies in channel 3. With second-level upgrades
	// enabled, the next scrub promotes the page to upgraded8.
	mem.InjectFault(3, 0, dram.Fault{Device: 11, Scope: dram.ScopeDevice, Mode: dram.StuckAt0})
	scrubber.FullScrub()
	fmt.Printf("after fault #2 + scrub: page is %v (four channels, 8 check symbols)\n", mem.PageMode(page))
	if mem.PageMode(page) != pagetable.Upgraded8 {
		log.Fatal("expected second-level upgrade")
	}

	// Both dead devices corrupt every codeword of the page — two bad
	// symbols per codeword — and the 8-check code corrects them outright.
	for line := range want {
		got, err := mem.ReadLine(page, line)
		if err != nil {
			log.Fatalf("line %d: %v", line, err)
		}
		if !bytes.Equal(got, want[line]) {
			log.Fatalf("line %d: data mismatch", line)
		}
	}
	fmt.Println("all lines intact under TWO simultaneous whole-device faults")

	st := mem.Stats()
	fmt.Printf("controller: %d corrections, %d DUEs, %d first-level upgrades, %d second-level upgrades\n",
		st.Corrected, st.DUEs, st.PageUpgrades, st.StrongUpgrades)
	fmt.Printf("only %.1f%% of pages pay the 4-channel cost; the rest stay cheap\n",
		float64(mem.Table().Count(pagetable.Upgraded8))/float64(mem.Pages())*100)
}
