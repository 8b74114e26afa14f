package server

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"raqo/internal/cloud"
)

func TestCloudSubmitEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{
		CloudTenants: []cloud.TenantConfig{
			{Name: "etl", Weight: 2},
			{Name: "bi", Weight: 1},
		},
	})

	resp := postJSON(t, ts.URL+"/v1/cloud/submit", CloudSubmitRequest{Tenant: "etl", Query: "Q12"})
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("cloud submit status = %d: %s", resp.StatusCode, body)
	}
	var out CloudSubmitResponse
	decodeBodyInto(t, resp, &out)
	if out.Recovery != "reoptimize" {
		t.Errorf("default recovery = %q, want reoptimize", out.Recovery)
	}
	if out.ExecSeconds <= 0 || out.FinishSeconds <= out.StartSeconds || out.Containers < 1 {
		t.Errorf("implausible outcome: %+v", out)
	}
	// A fresh idle pool admits on the cheapest $/GB class — the spot tier.
	if out.Tier != "spot" {
		t.Errorf("tier = %q, want spot (cheapest preference on an idle pool)", out.Tier)
	}
	// The tenant bill is attributed when the allocation finishes (or is
	// revoked), so the predicted outcome carries no spend yet.
	if out.BillUSD != 0 {
		t.Errorf("predicted bill = %v, want 0 (billing happens at finish)", out.BillUSD)
	}

	// Validation failures are 400s, not arbitration rejections.
	for _, bad := range []CloudSubmitRequest{
		{Tenant: "nope", Query: "Q12"},
		{Tenant: "etl", Query: "Q99"},
		{Tenant: "etl", Query: "Q12", Recovery: "sometimes"},
		{Tenant: "etl"}, // missing query
		{Query: "Q12"},  // "" -> "default", absent under custom tenants
	} {
		resp := postJSON(t, ts.URL+"/v1/cloud/submit", bad)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("cloud submit %+v status = %d, want 400", bad, resp.StatusCode)
		}
	}

	// The admitted gang is still held on the priced pool.
	resp, err := http.Get(ts.URL + "/v1/cloud/stats")
	if err != nil {
		t.Fatalf("GET cloud stats: %v", err)
	}
	var st cloud.Stats
	decodeBodyInto(t, resp, &st)
	if st.InFlight != 1 || st.Completed != 0 || st.Lost != 0 {
		t.Errorf("stats after submit: %+v", st)
	}
	if st.Capacity != 36 { // default market: 12 on-demand + 24 spot
		t.Errorf("capacity = %d, want 36", st.Capacity)
	}

	// The cloud metric families are on the shared /metrics exposition.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET metrics: %v", err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`raqo_cloud_admissions_total{tier="spot"}`,
		"raqo_cloud_capacity_containers",
		"raqo_cloud_preemptions_total",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics exposition missing %s", want)
		}
	}

	// drain=1 advances the virtual clock past the gang's finish.
	resp, err = http.Get(ts.URL + "/v1/cloud/stats?drain=1")
	if err != nil {
		t.Fatalf("GET cloud stats?drain=1: %v", err)
	}
	decodeBodyInto(t, resp, &st)
	if st.InFlight != 0 || st.Completed != 1 || st.Lost != 0 || st.Preemptions != 0 {
		t.Errorf("stats after drain: %+v", st)
	}
	if st.SpendUSD <= 0 {
		t.Errorf("pool spend = %v, want > 0", st.SpendUSD)
	}

	resp, err = http.Get(ts.URL + "/v1/cloud/stats?drain=banana")
	if err != nil {
		t.Fatalf("GET cloud stats?drain=banana: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad drain status = %d, want 400", resp.StatusCode)
	}
}

// TestNoClientPreemption: no endpoint lets a client revoke the market's
// spot allocations. A storm body POSTed while a spot gang runs is refused,
// and the market's preemption and in-flight counts do not move.
func TestNoClientPreemption(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/cloud/submit", CloudSubmitRequest{Query: "Q12"})
	var out CloudSubmitResponse
	decodeBodyInto(t, resp, &out)
	if out.Tier != "spot" {
		t.Fatalf("tier = %q, want a running spot gang", out.Tier)
	}
	stats := func() cloud.Stats {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/cloud/stats")
		if err != nil {
			t.Fatal(err)
		}
		var st cloud.Stats
		decodeBodyInto(t, resp, &st)
		return st
	}
	before := stats()
	resp, err := http.Post(ts.URL+"/v1/cloud/preempt", "application/json", strings.NewReader(`{"fraction":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		t.Errorf("POST /v1/cloud/preempt answered %d", resp.StatusCode)
	}
	after := stats()
	if before.InFlight != 1 || after.Preemptions != before.Preemptions || after.InFlight != before.InFlight {
		t.Errorf("market moved: before preemptions %d inFlight %d, after %d %d",
			before.Preemptions, before.InFlight, after.Preemptions, after.InFlight)
	}
}

// TestSubmitPathsShareOneOptimizer: the workload arbiter and the cloud
// arbiter plan on the server's one optimizer. Hammering both
// endpoints at once must answer each endpoint's stream exactly as a
// server that saw the two streams one after the other (run with -race).
func TestSubmitPathsShareOneOptimizer(t *testing.T) {
	const n = 16
	queries := []string{"Q12", "Q3", "Q2", "All"}
	stream := func(url, path string) ([]string, error) {
		var out []string
		for i := 0; i < n; i++ {
			body := `{"query":"` + queries[i%len(queries)] + `"}`
			resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
			if err != nil {
				return nil, err
			}
			b, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return nil, err
			}
			out = append(out, resp.Status+" "+string(b))
		}
		return out, nil
	}
	paths := []string{"/v1/submit", "/v1/cloud/submit"}

	_, seq := newTestServer(t, Config{})
	var want [2][]string
	for i, p := range paths {
		var err error
		if want[i], err = stream(seq.URL, p); err != nil {
			t.Fatal(err)
		}
	}

	_, par := newTestServer(t, Config{})
	var got [2][]string
	var errs [2]error
	var wg sync.WaitGroup
	for i, p := range paths {
		wg.Add(1)
		go func(i int, p string) {
			defer wg.Done()
			got[i], errs[i] = stream(par.URL, p)
		}(i, p)
	}
	wg.Wait()
	for i, p := range paths {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("%s answer %d differs under concurrency:\n got %s\nwant %s", p, j, got[i][j], want[i][j])
			}
		}
	}
}
