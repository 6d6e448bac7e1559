package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// envStamp records the machine state a run saw, so a noisy run can be
// diagnosed from its result file.
type envStamp struct {
	NumCPU     int        `json:"nproc"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	GoVersion  string     `json:"go_version"`
	CPUModel   string     `json:"cpu_model"`
	LoadStart  [3]float64 `json:"loadavg_start"`
	LoadEnd    [3]float64 `json:"loadavg_end"`
	// StealPct is the share of all CPU time the hypervisor took from this
	// machine during the run (/proc/stat steal), a sign of noisy neighbours.
	StealPct float64 `json:"steal_pct"`

	stealStart, totalStart float64
}

func stampEnv() envStamp {
	e := envStamp{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		LoadStart:  loadAvg(),
	}
	e.stealStart, e.totalStart = cpuTicks()
	return e
}

func (e *envStamp) finish() {
	e.LoadEnd = loadAvg()
	steal, total := cpuTicks()
	if total > e.totalStart {
		e.StealPct = 100 * (steal - e.stealStart) / (total - e.totalStart)
	}
}

// cpuTicks returns the steal and total ticks of the "cpu" line of
// /proc/stat.
func cpuTicks() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func loadAvg() [3]float64 {
	var out [3]float64
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return out
	}
	f := strings.Fields(string(b))
	for i := 0; i < 3 && i < len(f); i++ {
		out[i], _ = strconv.ParseFloat(f[i], 64)
	}
	return out
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// digests.json maps each workload to the sha256 of its outputs at the
// default seed.
//
//go:embed digests.json
var digestsJSON []byte

// digestsPath is where -record-digest writes, relative to the repository
// root the benchmark runs from.
const digestsPath = "perfbench/digests.json"

// checkDigest compares a default-seed run's output digest with the
// recorded one; other seeds have no digest and are checked by identity
// between passes inside each workload.
func checkDigest(name string, seed int64, got string, record bool) error {
	if seed != DefaultSeed {
		return nil
	}
	want := map[string]string{}
	if err := json.Unmarshal(digestsJSON, &want); err != nil {
		return fmt.Errorf("digests.json: %w", err)
	}
	if record {
		want[name] = got
		b, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.FromSlash(digestsPath), append(b, '\n'), 0o644)
	}
	return compareDigest(name, want[name], got)
}

func compareDigest(name, want, got string) error {
	if want == "" {
		return fmt.Errorf("no recorded digest for %s", name)
	}
	if got != want {
		return fmt.Errorf("%s output digest %s, recorded %s", name, got, want)
	}
	return nil
}
