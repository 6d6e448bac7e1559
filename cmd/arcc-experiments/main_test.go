package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

const exampleScenario = "../../examples/custom-scenario/scenario.json"

// TestMain runs the command itself when the test binary is re-executed
// with ARCC_EXPERIMENTS_MAIN set, so a test can check its exit status,
// standard output and standard error.
func TestMain(m *testing.M) {
	if os.Getenv("ARCC_EXPERIMENTS_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runExperiments runs the command with args under a deadline and returns
// its exit code, standard output and standard error.
func runExperiments(t *testing.T, timeout time.Duration, args ...string) (int, string, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), "ARCC_EXPERIMENTS_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if ctx.Err() != nil {
		t.Fatalf("%v still running after %v", args, timeout)
	}
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stdout.String(), stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stdout.String(), stderr.String()
	default:
		t.Fatal(err)
		return 0, "", ""
	}
}

// writeScenario writes the example scenario with fields overridden to a
// temporary file and returns its path.
func writeScenario(t *testing.T, fields map[string]any) string {
	t.Helper()
	raw, err := os.ReadFile(exampleScenario)
	if err != nil {
		t.Fatal(err)
	}
	sc := map[string]any{}
	if err := json.Unmarshal(raw, &sc); err != nil {
		t.Fatal(err)
	}
	for k, v := range fields {
		sc[k] = v
	}
	if raw, err = json.Marshal(sc); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestAccelFlagPassesTheArrivalBound: -accel sets the scenario's accel
// field before the scenario is checked, so a tilt that multiplies the
// expected fault arrivals past the bound is refused up front, as it is
// when the file itself asks for it.
func TestAccelFlagPassesTheArrivalBound(t *testing.T) {
	fromFile := writeScenario(t, map[string]any{"accel": "tilt:1e6"})
	for _, args := range [][]string{
		{"-scenario", exampleScenario, "-accel", "tilt:1e6", "-trials", "10", "-parallel", "1"},
		{"-scenario", fromFile, "-trials", "10", "-parallel", "1"},
	} {
		code, _, stderr := runExperiments(t, 10*time.Second, args...)
		if code != 1 || !strings.Contains(stderr, "expected fault arrivals per channel lifetime exceeds") {
			t.Fatalf("%v: exit code %d, want 1 with the arrivals error; stderr:\n%s", args, code, stderr)
		}
		if !strings.Contains(stderr, args[1]) {
			t.Errorf("%v: error does not name the scenario file:\n%s", args, stderr)
		}
	}
}

// TestAccelCIFlagsSetScenarioFields: -accel conditional -ci computes the
// same report data as a scenario file declaring those fields.
func TestAccelCIFlagsSetScenarioFields(t *testing.T) {
	data := func(args ...string) any {
		t.Helper()
		code, stdout, stderr := runExperiments(t, time.Minute,
			append(args, "-quick", "-trials", "300", "-format", "json")...)
		if code != 0 {
			t.Fatalf("%v: exit code %d; stderr:\n%s", args, code, stderr)
		}
		var report struct {
			Meta map[string]any `json:"meta"`
			Data any            `json:"data"`
		}
		if err := json.Unmarshal([]byte(stdout), &report); err != nil {
			t.Fatalf("%v: output is not one JSON report: %v", args, err)
		}
		for _, k := range []string{"accel", "ci"} {
			if _, ok := report.Meta[k]; ok {
				t.Errorf("%v: meta carries %q: %v", args, k, report.Meta)
			}
		}
		return report.Data
	}
	flags := data("-scenario", exampleScenario, "-accel", "conditional", "-ci")
	fields := data("-scenario", writeScenario(t, map[string]any{"accel": "conditional", "ci": true}))
	if !reflect.DeepEqual(flags, fields) {
		t.Fatalf("flags computed\n%v\nthe scenario fields computed\n%v", flags, fields)
	}
	sc := flags.(map[string]any)["Scenario"].(map[string]any)
	if sc["accel"] != "conditional" || sc["ci"] != true {
		t.Fatalf("report scenario lost the flags: %v", sc)
	}
}

// TestUsageErrors: flags that cannot apply, and bad scenario files, exit 1
// with a message saying why.
func TestUsageErrors(t *testing.T) {
	badFields := writeScenario(t, map[string]any{"years": -3})
	badJSON := filepath.Join(t.TempDir(), "broken.json")
	if err := os.WriteFile(badJSON, []byte(`{"name":`), 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(t.TempDir(), "missing.json")
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-exhibit", "t7.1", "-accel", "conditional"}, "-accel and -ci require -scenario"},
		{[]string{"-exhibit", "t7.1", "-ci"}, "-accel and -ci require -scenario"},
		{[]string{"-exhibit", "t7.1", "-trace", "x.trc"}, "-trace requires -scenario"},
		{[]string{"-exhibit", "t7.1", "-trials", "-5"}, "-trials -5 is negative"},
		{[]string{"-scenario", exampleScenario, "-trials", "-5"}, "-trials -5 is negative"},
		{[]string{"-scenario", exampleScenario, "-accel", "bogus"}, "unknown acceleration"},
		{[]string{"-scenario", badFields}, badFields},
		{[]string{"-scenario", badJSON}, badJSON},
		{[]string{"-scenario", missing}, missing},
	}
	for _, tc := range cases {
		code, stdout, stderr := runExperiments(t, 10*time.Second, tc.args...)
		if code != 1 || !strings.Contains(stderr, "arcc-experiments:") || !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: exit code %d, want 1 with %q; stderr:\n%s", tc.args, code, tc.want, stderr)
		}
		if stdout != "" {
			t.Errorf("%v: wrote a report for a usage error:\n%s", tc.args, stdout)
		}
	}
}
