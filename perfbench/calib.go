package main

import "time"

// Host-speed calibration.
//
// On a shared machine, how much work this process gets done per CPU second
// changes with what the neighbours run on the same physical cores and
// caches: with no hypervisor steal at all, the same sim-fault-sweep ops took
// up to 1.8x longer in one stretch of minutes than in another. A CPU clock
// cannot absorb that. So every timed op is followed by one calibration
// slice: a fixed piece of work, frozen in this file, whose CPU time tracks
// the host's speed at that moment. An op's cost is its CPU time scaled by
// calRef over the median slice time around it (opCosts), that is, the time
// the op would take on a host that runs the slice in calRef.
//
// The slice is eight independent floating-point multiply-add chains: it
// keeps the core's execution ports busy the way the workloads do, so it
// slows down when a neighbour competes for the same core. Of several
// candidates measured on the reference host against sim-fault-sweep,
// lifetime-mc and functional-rw under changing load (dependent integer
// chains, independent integer chains, L2- and L3-sized random walks, a DRAM
// pointer chase and math.Log/math.Exp), this one tracked them best:
// sim-fault-sweep's and lifetime-mc's op times moved about as much as the
// slice's (log-log slope 0.95 and 1.05, correlation 0.96 and 0.99),
// functional-rw's a little more (slope 1.17, correlation 0.86). Change
// nothing here without re-measuring every workload on both sides of a
// comparison: the slice is the yardstick.

// calRef is about the CPU time of one calibration slice on the reference
// host (a shared 2-vCPU Intel Xeon VM, Go 1.24, linux/amd64) at its usual
// speed, so normalised figures read close to that host's raw CPU times.
const calRef = time.Millisecond

// calWindow is the number of slices on each side of an op whose median
// gives the host speed at that op.
const calWindow = 8

var calSink float64

// calibrate runs one calibration slice and returns its CPU time.
func calibrate() time.Duration {
	c0 := cpuClock()
	a, b, c, d, e, f, g, h := 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7
	for i := 0; i < 250_000; i++ {
		a = a*0.999999 + 1e-7
		b = b*0.999998 + 2e-7
		c = c*0.999997 + 3e-7
		d = d*0.999996 + 4e-7
		e = e*0.999995 + 5e-7
		f = f*0.999994 + 6e-7
		g = g*0.999993 + 7e-7
		h = h*0.999992 + 8e-7
	}
	calSink += a + b + c + d + e + f + g + h
	return cpuClock() - c0
}

// calibrateMedian runs n slices and returns their median CPU time.
func calibrateMedian(n int) time.Duration {
	ts := make([]float64, n)
	for i := range ts {
		ts[i] = float64(calibrate())
	}
	return time.Duration(median(ts))
}

// normalise scales a CPU time measured while slices took cal to the
// reference host speed.
func normalise(d, cal time.Duration) time.Duration {
	return time.Duration(float64(d) * float64(calRef) / float64(cal))
}
