package experiments

import "testing"

// TestCloudReportDeterministic runs the cloud-economics report twice:
// both runs must self-assert cleanly and render byte-identically — spend,
// preemption draws, autoscaler steps and recovery latencies all derive
// from the seeded virtual clock, never the host.
func TestCloudReportDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full virtual workload")
	}
	a, err := CloudEconomics()
	if err != nil {
		t.Fatal(err)
	}
	b, err := CloudEconomics()
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("cloud report not deterministic across runs:\n%s\n---\n%s", a, b)
	}
	if len(a.Tables) != 2 {
		t.Fatalf("tables = %d, want 2", len(a.Tables))
	}
}
