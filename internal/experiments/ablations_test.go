package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestAblationScrub(t *testing.T) {
	rows := ablationScrub()
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if !r.FourStep {
			t.Errorf("4-step scrubber missed: %s", r.Scenario)
		}
		if strings.Contains(r.Scenario, "hidden") && r.Conventional {
			t.Errorf("conventional scrubber should miss the hidden case: %s", r.Scenario)
		}
		if !strings.Contains(r.Scenario, "hidden") && !r.Conventional {
			t.Errorf("conventional scrubber should catch the visible case: %s", r.Scenario)
		}
	}
	var buf bytes.Buffer
	rows.Fprint(&buf)
	if !strings.Contains(buf.String(), "4-step") {
		t.Fatal("printer broken")
	}
}

func TestAblationLLCPolicy(t *testing.T) {
	r := runQuick(t, ablationLLCPolicy)
	if len(r.Policies) != 2 || len(r.Mixes) != 3 {
		t.Fatalf("shape %v/%v", r.Policies, r.Mixes)
	}
	for mi := range r.Mixes {
		if r.IPCRatio[0][mi] != 1.0 {
			t.Fatalf("shared-recency baseline ratio != 1: %v", r.IPCRatio[0][mi])
		}
		// Independent LRU must not be dramatically better; it is usually
		// equal or slightly worse (paired lines lose protection).
		if r.IPCRatio[1][mi] > 1.05 || r.IPCRatio[1][mi] < 0.80 {
			t.Fatalf("independent-lru ratio %v outside [0.80, 1.05]", r.IPCRatio[1][mi])
		}
	}
	var buf bytes.Buffer
	r.Fprint(&buf)
	if !strings.Contains(buf.String(), "shared-recency") {
		t.Fatal("printer broken")
	}
}

func TestAblationPairing(t *testing.T) {
	r := runQuick(t, ablationPairing)
	for i, ratio := range r.FIFORatio {
		// FIFO synchronisation can only cost performance, and only a little.
		if ratio > 1.02 || ratio < 0.85 {
			t.Fatalf("%s: FIFO/promote ratio %v outside [0.85, 1.02]", r.Mixes[i], ratio)
		}
	}
	var buf bytes.Buffer
	r.Fprint(&buf)
	if !strings.Contains(buf.String(), "pairing") {
		t.Fatal("printer broken")
	}
}
