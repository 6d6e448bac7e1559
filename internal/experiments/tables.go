package experiments

import (
	"io"

	"arcc/internal/faultmodel"
	"arcc/internal/workload"
)

// Table71Row is one memory configuration of Table 7.1.
type Table71Row struct {
	Name     string
	Tech     string
	IO       string
	Channels int
	Ranks    int
	RankSize int
}

// Table71 holds the rows of Table 7.1.
type Table71 []Table71Row

// table71 returns the evaluated memory configurations.
func table71() Table71 {
	return Table71{
		{Name: "Baseline", Tech: "DDR2", IO: "X4", Channels: 2, Ranks: 1, RankSize: 36},
		{Name: "ARCC", Tech: "DDR2", IO: "X8", Channels: 2, Ranks: 2, RankSize: 18},
	}
}

// Fprint renders Table 7.1.
func (t Table71) Fprint(w io.Writer) {
	fprintf(w, "Table 7.1: Memory Configurations\n")
	fprintf(w, "%-10s %-6s %-4s %-5s %-11s %-9s\n", "Name", "Tech", "I/O", "Chan", "Ranks/Chan", "Rank Size")
	for _, r := range t {
		fprintf(w, "%-10s %-6s %-4s %-5d %-11d %-9d\n", r.Name, r.Tech, r.IO, r.Channels, r.Ranks, r.RankSize)
	}
}

// Table72Row is one processor parameter of Table 7.2.
type Table72Row struct{ Param, Value string }

// Table72 holds the rows of Table 7.2.
type Table72 []Table72Row

// table72 returns the simulated core parameters.
func table72() Table72 {
	return Table72{
		{"SS Width", "2"},
		{"IQ Size", "16"},
		{"Phys Regs", "72FP/72INT"},
		{"LSQ Size", "32LQ/32SQ"},
		{"L1 D$, I$", "32 kB"},
		{"L1 Assoc", "2"},
		{"L1 lat.", "1 cycle"},
		{"L2$", "1MB"},
		{"L2 Assoc", "16"},
		{"L2 lat.", "10 cycles"},
		{"Cacheline Size", "64B"},
		{"L2 MSHR", "240"},
	}
}

// Fprint renders Table 7.2.
func (t Table72) Fprint(w io.Writer) {
	fprintf(w, "Table 7.2: Processor Microarchitecture\n")
	for _, r := range t {
		fprintf(w, "%-16s %s\n", r.Param, r.Value)
	}
}

// Table73 holds the 12 workload mixes of Table 7.3.
type Table73 []workload.Mix

// table73 returns the 12 workload mixes (Table 7.3).
func table73() Table73 { return workload.Mixes() }

// Fprint renders Table 7.3.
func (t Table73) Fprint(w io.Writer) {
	fprintf(w, "Table 7.3: Workloads\n")
	for _, m := range t {
		fprintf(w, "%-6s %s;%s;%s;%s\n", m.Name,
			m.Benchmarks[0].Name, m.Benchmarks[1].Name, m.Benchmarks[2].Name, m.Benchmarks[3].Name)
	}
}

// Table74Row is one fault-modeling entry of Table 7.4.
type Table74Row struct {
	FaultType string
	Fraction  float64
	Note      string
}

// Table74 holds the rows of Table 7.4.
type Table74 []Table74Row

// table74 returns the fraction of pages upgraded per fault type, derived
// from the ARCC channel shape (not hard-coded: the derivation is the test).
func table74() Table74 {
	shape := faultmodel.ARCCChannelShape()
	return Table74{
		{"Lane", shape.UpgradedFraction(faultmodel.Lane), "causes both ranks per channel to be upgraded"},
		{"Device", shape.UpgradedFraction(faultmodel.Device), "causes 1 of the 2 ranks to be upgraded"},
		{"Subbank", shape.UpgradedFraction(faultmodel.Bank), "causes 1 of the 8 banks in a single rank to be upgraded"},
		{"Column", shape.UpgradedFraction(faultmodel.Column), "causes half of the pages in a single bank to be upgraded"},
	}
}

// Fprint renders Table 7.4.
func (t Table74) Fprint(w io.Writer) {
	fprintf(w, "Table 7.4: Fault Modeling Details\n")
	fprintf(w, "%-10s %-10s %s\n", "Fault Type", "Fraction", "Note")
	for _, r := range t {
		fprintf(w, "%-10s %-10.6f %s\n", r.FaultType, r.Fraction, r.Note)
	}
}
