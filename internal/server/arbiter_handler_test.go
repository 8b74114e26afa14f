package server

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"raqo/internal/arbiter"
)

func TestSubmitEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{
		ArbiterTenants: []arbiter.TenantConfig{
			{Name: "etl", Weight: 2},
			{Name: "bi", Weight: 1},
		},
	})

	resp := postJSON(t, ts.URL+"/v1/submit", SubmitRequest{Tenant: "etl", Query: "Q12"})
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("submit status = %d: %s", resp.StatusCode, body)
	}
	var out SubmitResponse
	decodeBodyInto(t, resp, &out)
	if out.Policy != "reoptimize" {
		t.Errorf("default policy = %q, want reoptimize", out.Policy)
	}
	if out.ExecSeconds <= 0 || out.FinishSeconds <= out.StartSeconds || out.Containers < 1 {
		t.Errorf("implausible outcome: %+v", out)
	}

	// Validation failures are 400s, not arbitration rejections.
	for _, bad := range []SubmitRequest{
		{Tenant: "nope", Query: "Q12"},
		{Tenant: "etl", Query: "Q99"},
		{Tenant: "etl", Query: "Q12", Policy: "sometimes"},
		{Tenant: "etl"}, // missing query
		{Query: "Q12"},  // "" -> "default", absent under custom tenants
	} {
		resp := postJSON(t, ts.URL+"/v1/submit", bad)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %+v status = %d, want 400", bad, resp.StatusCode)
		}
	}

	// The admitted gang is still held on the virtual cluster.
	resp, err := http.Get(ts.URL + "/v1/arbiter/stats")
	if err != nil {
		t.Fatalf("GET stats: %v", err)
	}
	var st arbiter.Stats
	decodeBodyInto(t, resp, &st)
	if st.InFlight != 1 || st.AdmittedReopt != 1 {
		t.Errorf("stats after submit: %+v", st)
	}
	if st.FreeContainers != 100-out.Containers {
		t.Errorf("free = %d, want %d", st.FreeContainers, 100-out.Containers)
	}

	// The arbiter metric families are on the shared /metrics exposition.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET metrics: %v", err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`raqo_arbiter_admissions_total{policy="reoptimize"}`,
		"raqo_arbiter_pool_containers_in_use",
		"raqo_arbiter_queue_wait_virtual_seconds",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics exposition missing %s", want)
		}
	}

	// drain=1 advances the virtual clock past every outstanding finish.
	resp, err = http.Get(ts.URL + "/v1/arbiter/stats?drain=1")
	if err != nil {
		t.Fatalf("GET stats?drain=1: %v", err)
	}
	decodeBodyInto(t, resp, &st)
	if st.InFlight != 0 || st.Completed != 1 || st.FreeContainers != 100 {
		t.Errorf("stats after drain: %+v", st)
	}
	if st.Now < out.FinishSeconds {
		t.Errorf("virtual now %v did not reach the finish %v", st.Now, out.FinishSeconds)
	}

	resp, err = http.Get(ts.URL + "/v1/arbiter/stats?drain=banana")
	if err != nil {
		t.Fatalf("GET stats?drain=banana: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad drain status = %d, want 400", resp.StatusCode)
	}

	// Under wait, a gang that fits the idle pool is admitted as requested.
	resp = postJSON(t, ts.URL+"/v1/submit", SubmitRequest{Tenant: "etl", Query: "Q3", Policy: "wait"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wait submit status = %d", resp.StatusCode)
	}
	decodeBodyInto(t, resp, &out)
	if out.Policy != "wait" {
		t.Errorf("policy = %q, want wait", out.Policy)
	}
}

func TestSubmitOversizedWaitGets429(t *testing.T) {
	// A 1-container pool can never satisfy a wait-policy plan optimized
	// for the full default cluster: backpressure, not a client error.
	_, ts := newTestServer(t, Config{
		ArbiterCapacity: 1,
	})
	resp := postJSON(t, ts.URL+"/v1/submit", SubmitRequest{Query: "Q12", Policy: "wait"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("oversized wait status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("429 Retry-After = %q, want 1", got)
	}

	// The same query under reoptimize fits the single container.
	resp = postJSON(t, ts.URL+"/v1/submit", SubmitRequest{Query: "Q12", Policy: "reoptimize"})
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("reoptimize on tiny pool status = %d: %s", resp.StatusCode, body)
	}
	var out SubmitResponse
	decodeBodyInto(t, resp, &out)
	if out.Containers != 1 {
		t.Errorf("gang = %d containers, want 1", out.Containers)
	}
}
