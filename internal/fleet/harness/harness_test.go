package harness_test

import (
	"testing"

	"raqo/internal/fleet/harness"
)

// The harness drives the real binary in the process tests of cmd/raqo
// (`go test -run TestProcess ./cmd/raqo`).

func TestHarnessRejectsEmptyFleet(t *testing.T) {
	if _, err := harness.Start(harness.Options{Nodes: 0}); err == nil {
		t.Fatal("zero-node fleet accepted")
	}
}
