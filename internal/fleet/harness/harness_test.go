package harness_test

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"raqo/internal/fleet"
	"raqo/internal/fleet/harness"
)

// TestHarnessFleetLifecycle is the multi-process end-to-end check: two
// real `raqo serve` processes route to each other, survive a crash of one
// member in degraded mode, recover on restart, and drain cleanly.
func TestHarnessFleetLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test")
	}
	f, err := harness.Start(harness.Options{
		Nodes: 2,
		Dir:   t.TempDir(),
		Args:  []string{"-trained=false"},
	})
	if err != nil {
		t.Fatal(err)
	}
	stopped := false
	defer func() {
		if !stopped {
			_ = f.Stop()
		}
	}()
	addrs := f.Addrs()
	if len(addrs) != 2 || addrs[0] == addrs[1] {
		t.Fatalf("addrs = %v", addrs)
	}

	post := func(addr, path, body string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Post("http://"+addr+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s%s: %v\nnode0 log:\n%s\nnode1 log:\n%s",
				addr, path, err, f.Nodes()[0].Log(), f.Nodes()[1].Log())
		}
		defer func() { _ = resp.Body.Close() }()
		b, _ := io.ReadAll(resp.Body)
		return resp, string(b)
	}

	// Both processes agree on membership.
	for _, addr := range addrs {
		var st fleet.StatusResponse
		resp, err := http.Get("http://" + addr + "/v1/fleet/status")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if len(st.RingNodes) != 2 || st.NodeID != addr {
			t.Fatalf("status from %s = %+v", addr, st)
		}
	}

	// Every query is answered by a fleet member with a 200 whichever node
	// it enters at, and at least one is answered by the *other* process
	// (real cross-process forwarding). Ownership follows the ephemeral
	// addresses, so each query enters at both nodes: whoever owns it, one
	// of the two entries has to forward.
	crossServed := false
	for _, q := range []string{"Q12", "Q3", "Q2"} {
		for _, entry := range addrs {
			resp, body := post(entry, "/v1/optimize", `{"query":"`+q+`"}`)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("optimize %s via %s: HTTP %d: %s", q, entry, resp.StatusCode, body)
			}
			switch served := resp.Header.Get("X-Raqo-Fleet-Node"); served {
			case entry:
			case addrs[0], addrs[1]:
				crossServed = true
			default:
				t.Fatalf("optimize %s served by unknown node %q", q, served)
			}
		}
	}
	if !crossServed {
		t.Error("no request crossed processes")
	}

	// Crash node 1: requests through node 0 must still succeed (degraded
	// local planning), never error.
	if err := f.Kill(1); err != nil {
		t.Fatal(err)
	}
	if f.Nodes()[1].Running() {
		t.Fatal("node 1 reported running after Kill")
	}
	for _, q := range []string{"Q12", "Q3", "Q2"} {
		resp, body := post(addrs[0], "/v1/optimize", `{"query":"`+q+`"}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("degraded optimize %s: HTTP %d: %s", q, resp.StatusCode, body)
		}
		// Either the node answered locally (degraded mode: planned, or
		// replayed from its response memo) or, not yet knowing the owner is
		// gone, it answered from the memo's copy of the dead owner's earlier
		// response — both keep the fleet promise; an error or a hang would
		// not.
		served := resp.Header.Get("X-Raqo-Fleet-Node")
		if served != addrs[0] && resp.Header.Get("X-Raqo-Fleet-Cache") != "hit" {
			t.Fatalf("degraded optimize %s served by %q, want local %q or a memo hit", q, served, addrs[0])
		}
	}

	// Restart node 1 on the same port: it rejoins and serves again.
	if err := f.Restart(1); err != nil {
		t.Fatal(err)
	}
	resp, body := post(addrs[1], "/v1/optimize", `{"query":"Q12"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart optimize: HTTP %d: %s", resp.StatusCode, body)
	}

	stopped = true
	if err := f.Stop(); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestHarnessRejectsEmptyFleet(t *testing.T) {
	if _, err := harness.Start(harness.Options{Nodes: 0}); err == nil {
		t.Fatal("zero-node fleet accepted")
	}
}
