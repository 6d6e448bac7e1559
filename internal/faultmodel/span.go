package faultmodel

import "fmt"

// ChannelShape describes a memory channel for page-span purposes: how many
// of the channel's 4 KB physical pages does a fault of a given type touch,
// under the paper's worst-case assumption (Ch. 3) that every memory location
// under the faulty circuitry is corrupted.
type ChannelShape struct {
	RanksPerChannel int
	BanksPerDevice  int
	PagesPerRow     int // the paper assumes two 4 KB pages per DRAM row
	TotalPages      int // 4 KB pages in the whole channel
}

// ARCCChannelShape is the evaluated ARCC configuration (Table 7.1): two
// ranks of 18 x8 devices per channel, 8 banks, two pages per row. The total
// page count corresponds to 2 GB of data per channel (16 data devices x
// 512 Mb x 2 ranks).
func ARCCChannelShape() ChannelShape {
	return ChannelShape{RanksPerChannel: 2, BanksPerDevice: 8, PagesPerRow: 2, TotalPages: 512 * 1024}
}

func (s ChannelShape) validate() {
	if s.RanksPerChannel <= 0 || s.BanksPerDevice <= 0 || s.PagesPerRow <= 0 || s.TotalPages <= 0 {
		panic(fmt.Sprintf("faultmodel: invalid channel shape %+v", s))
	}
}

// UpgradedFraction returns the fraction of the channel's pages that a single
// fault of type t forces into upgraded mode. The large-span entries
// reproduce Table 7.4: lane 100%, device 1/2, bank ("subbank") 1/16, column
// 1/32 for the ARCC shape.
func (s ChannelShape) UpgradedFraction(t Type) float64 {
	s.validate()
	switch t {
	case Lane:
		// A lane fault sits on the shared data bus: both ranks of the
		// channel are behind it, so every page is affected.
		return 1.0
	case Device:
		// Every page in the faulty device's rank has symbols in it.
		return 1.0 / float64(s.RanksPerChannel)
	case Bank:
		// One bank of one rank.
		return 1.0 / float64(s.RanksPerChannel*s.BanksPerDevice)
	case Column:
		// A column intersects one line-column of every row in the bank;
		// with PagesPerRow pages per row it touches 1/PagesPerRow of the
		// bank's pages.
		return 1.0 / float64(s.RanksPerChannel*s.BanksPerDevice*s.PagesPerRow)
	case Row:
		// One DRAM row holds PagesPerRow pages.
		return float64(s.PagesPerRow) / float64(s.TotalPages)
	case Word, Bit:
		// Confined to a single page.
		return 1.0 / float64(s.TotalPages)
	}
	panic(fmt.Sprintf("faultmodel: unknown fault type %v", t))
}
