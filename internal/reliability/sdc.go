package reliability

import (
	"context"
	"encoding/binary"
	"fmt"

	"arcc/internal/faultmodel"
	"arcc/internal/mc"
	"arcc/internal/rng"
)

// Params configures the SDC models.
type Params struct {
	Rates           faultmodel.Rates
	RanksPerChannel int
	DevicesPerRank  int
	Geom            RankGeom
	ScrubHours      float64
	LifeYears       float64
}

// DefaultParams matches the Fig 6.1 setup: a 72-device channel (2 ranks),
// four-hour scrubs.
func DefaultParams() Params {
	return Params{
		Rates:           faultmodel.FieldStudyRates(),
		RanksPerChannel: 2,
		DevicesPerRank:  36,
		Geom:            RankGeom{Devices: 36, Banks: 8, Rows: 16384, Cols: 64},
		ScrubHours:      4,
		LifeYears:       7,
	}
}

func (p Params) validate() {
	if p.RanksPerChannel <= 0 || p.DevicesPerRank <= 1 || p.ScrubHours <= 0 || p.LifeYears <= 0 {
		panic(fmt.Sprintf("reliability: invalid params %+v", p))
	}
}

// totalDevices returns devices per channel.
func (p Params) totalDevices() int { return p.RanksPerChannel * p.DevicesPerRank }

// arrivalRatePerHour returns the channel-wide fault rate of type t.
func (p Params) arrivalRatePerHour(t faultmodel.Type) float64 {
	return p.Rates[t] * 1e-9 * float64(p.totalDevices())
}

// ARCCDEDExpectedSDCs returns the expected number of undetected-error
// events per machine lifetime under ARCC's reduced double error detection:
// an SDC requires a second fault to land in a codeword already corrupted by
// an undetected first fault — i.e. the two faults must be geometric threats
// to a common codeword AND arrive within the same scrub interval (after
// which the page is upgraded to full double detection).
func ARCCDEDExpectedSDCs(p Params) float64 {
	p.validate()
	hours := p.LifeYears * faultmodel.HoursPerYear
	var sum float64
	for _, a := range faultmodel.Types() {
		ra := p.arrivalRatePerHour(a)
		if ra == 0 {
			continue
		}
		for _, b := range faultmodel.Types() {
			rb := p.arrivalRatePerHour(b)
			if rb == 0 {
				continue
			}
			// First fault of type a at any time in the lifetime; second
			// fault of type b within the remainder of a's scrub interval
			// (mean exposure ScrubHours/2).
			threat := p.Geom.PairThreatProb(a, b, p.RanksPerChannel)
			sum += (ra * hours) * (rb * p.ScrubHours / 2) * threat
		}
	}
	return sum
}

// SCCDCDExpectedSDCs returns the expected undetected-error events per
// machine lifetime for always-on double error detection (commercial
// SCCDCD): three faults must threaten a common codeword, with the third
// arriving before the second is detected (two faults produce a DUE at the
// next scrub, which services the machine). The first fault persists —
// single bad symbols are corrected in place, not serviced — so it
// accumulates over the machine's age: integrating the instantaneous rate
// lambda_a*t over the lifetime yields the hours^2/2 factor, which is why
// the per-machine-year SDC rate of this scheme grows with intended
// lifespan in Fig 6.1.
func SCCDCDExpectedSDCs(p Params) float64 {
	p.validate()
	hours := p.LifeYears * faultmodel.HoursPerYear
	var sum float64
	for _, a := range faultmodel.Types() {
		ra := p.arrivalRatePerHour(a)
		if ra == 0 {
			continue
		}
		for _, b := range faultmodel.Types() {
			rb := p.arrivalRatePerHour(b)
			if rb == 0 {
				continue
			}
			for _, c := range faultmodel.Types() {
				rc := p.arrivalRatePerHour(c)
				if rc == 0 {
					continue
				}
				// a accumulates with machine age (integral of ra*t over
				// the lifetime = ra*hours^2/2); b overlaps it within some
				// scrub interval; c overlaps both within the same interval.
				threatAB := p.Geom.PairThreatProb(a, b, p.RanksPerChannel)
				threatC := p.Geom.OverlapProb(b, c) * float64(p.Geom.Devices-2) / float64(p.Geom.Devices)
				if a == faultmodel.Lane || b == faultmodel.Lane || c == faultmodel.Lane {
					threatC = float64(p.Geom.Devices-2) / float64(p.Geom.Devices)
				}
				sum += (ra * hours * hours / 2) * (rb * p.ScrubHours / 2) * (rc * p.ScrubHours / 2) * threatAB * threatC
			}
		}
	}
	return sum
}

// SDCsPer1000MachineYears converts an expected per-lifetime count to the
// paper's Fig 6.1 metric, assuming machines are replaced at end of life (or
// at the first SDC, whichever comes first — at these magnitudes the
// difference is negligible).
func SDCsPer1000MachineYears(expectedPerLifetime float64, lifeYears float64) float64 {
	if lifeYears <= 0 {
		panic("reliability: non-positive lifespan")
	}
	return expectedPerLifetime * 1000 / lifeYears
}

// eventCount accumulates undetected-event counts across shards.
type eventCount struct{ events int }

func (a *eventCount) Merge(other mc.Accumulator) { a.events += other.(*eventCount).events }

// MarshalBinary/UnmarshalBinary make the SDC validation Monte Carlo
// checkpointable; the count round-trips exactly.
func (a *eventCount) MarshalBinary() ([]byte, error) {
	out := make([]byte, 8)
	binary.LittleEndian.PutUint64(out, uint64(a.events))
	return out, nil
}

func (a *eventCount) UnmarshalBinary(b []byte) error {
	if len(b) != 8 {
		return fmt.Errorf("reliability: event-count snapshot holds %d bytes, want 8", len(b))
	}
	a.events = int(binary.LittleEndian.Uint64(b))
	return nil
}

// SimulateARCCDED runs the event-level Monte Carlo for the ARCC DED model:
// it draws fault histories for channels channels and counts how many
// undetected double-fault events occur (second threat fault landing before
// the scrub that would have detected the first). It exists to validate the
// closed-form model, exactly as the paper validates its analytic models
// with Monte Carlo; run it at inflated rates to see events at all.
// Channels are sharded across workers per opts with one RNG stream per
// shard, so the count is reproducible at any parallelism; a cancelled ctx
// returns (0, mc.ErrCanceled) within one shard boundary.
func SimulateARCCDED(ctx context.Context, seed int64, opts mc.Options, p Params, channels int) (int, error) {
	p.validate()
	if channels <= 0 {
		panic("reliability: non-positive channel count")
	}
	sampler := faultmodel.NewSampler(p.Rates, p.RanksPerChannel, p.DevicesPerRank, p.LifeYears)
	acc, err := mc.RunCtx(ctx, mc.Job{
		Trials:     channels,
		Seed:       seed,
		NewAcc:     func() mc.Accumulator { return &eventCount{} },
		NewScratch: newArrivalScratch(p.Rates, p.RanksPerChannel, p.DevicesPerRank, p.LifeYears, 1),
		Shard: func(src *rng.Source, lo, hi int, a mc.Accumulator, sc any) {
			ec, scratch := a.(*eventCount), sc.(*arrivalScratch)
			for range hi - lo {
				arrivals, _ := sampler.SampleInto(src, scratch.buf)
				scratch.buf = arrivals
				for i, first := range arrivals {
					// The first fault is exposed until the end of its
					// scrub interval.
					detectAt := (float64(int(first.AtHours/p.ScrubHours)) + 1) * p.ScrubHours
					for j := i + 1; j < len(arrivals); j++ {
						second := arrivals[j]
						if second.AtHours >= detectAt {
							break
						}
						if threatens(p.Geom, first, second) && src.Float64() < p.Geom.OverlapProb(first.Type, second.Type) {
							ec.events++
						}
					}
				}
			}
		},
	}, opts)
	if err != nil {
		return 0, err
	}
	return acc.(*eventCount).events, nil
}

// threatens checks the placement conditions (same rank unless a lane fault,
// different devices) for two sampled arrivals.
func threatens(g RankGeom, a, b faultmodel.Arrival) bool {
	laneInvolved := a.Type == faultmodel.Lane || b.Type == faultmodel.Lane
	if !laneInvolved && a.Rank != b.Rank {
		return false
	}
	return a.Device != b.Device
}
