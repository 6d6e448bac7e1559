package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs the command itself when the test binary is re-executed
// with ARCC_MEMSIM_MAIN set, so a test can check its exit status and
// standard error.
func TestMain(m *testing.M) {
	if os.Getenv("ARCC_MEMSIM_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMemsim runs the command with args and returns its exit code and
// standard error.
func runMemsim(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "ARCC_MEMSIM_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	default:
		t.Fatal(err)
		return 0, ""
	}
}

// TestEmptyTraceIsAnError feeds -trace a file holding only the trace
// header: the command must exit 1 with an error message, not panic.
func TestEmptyTraceIsAnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.trace")
	if err := os.WriteFile(path, []byte("ARCCTRC1"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stderr := runMemsim(t, "-trace", path, "-instructions", "1000")
	if code != 1 {
		t.Fatalf("exit code %d, want 1; stderr:\n%s", code, stderr)
	}
	if strings.Contains(stderr, "panic") || !strings.Contains(stderr, "arcc-memsim:") ||
		!strings.Contains(stderr, "malformed trace") {
		t.Fatalf("stderr is not a one-line error:\n%s", stderr)
	}
}

// TestDumpedTraceReplays records core 0's stream with -dump-trace and
// replays it with -trace.
func TestDumpedTraceReplays(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mesa.trace")
	if code, stderr := runMemsim(t, "-dump-trace", path, "-trace-accesses", "500"); code != 0 {
		t.Fatalf("-dump-trace exit code %d; stderr:\n%s", code, stderr)
	}
	code, stderr := runMemsim(t, "-trace", path, "-instructions", "20000")
	if code != 0 {
		t.Fatalf("-trace exit code %d; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "replaying 500 recorded accesses on core 0") {
		t.Fatalf("stderr does not report the replay:\n%s", stderr)
	}
}

// TestBadFlagsAreUsageErrors: flag values the simulator cannot run must
// exit 1 with a one-line error before any run or file write, not reach a
// panic or run with a meaningless value.
func TestBadFlagsAreUsageErrors(t *testing.T) {
	dump := filepath.Join(t.TempDir(), "never.trace")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-upgraded", "2"}, "upgraded fraction 2 must be in [0,1]"},
		{[]string{"-upgraded", "-0.5"}, "upgraded fraction -0.5 must be in [0,1]"},
		{[]string{"-upgraded", "NaN"}, "upgraded fraction NaN must be in [0,1]"},
		{[]string{"-instructions", "0"}, "instructions must be positive"},
		{[]string{"-trace-accesses", "-5", "-dump-trace", dump}, "trace-accesses must be positive"},
	} {
		code, stderr := runMemsim(t, tc.args...)
		if code != 1 || strings.Contains(stderr, "panic") || !strings.Contains(stderr, "arcc-memsim: "+tc.want) {
			t.Errorf("%v: exit code %d, stderr:\n%s", tc.args, code, stderr)
		}
	}
	if _, err := os.Stat(dump); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("-trace-accesses -5 still wrote %s (stat: %v)", dump, err)
	}
}
