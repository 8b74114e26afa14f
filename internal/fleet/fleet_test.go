package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"raqo/internal/cost"
	"raqo/internal/execsim"
	"raqo/internal/feedback"
	"raqo/internal/fleet"
	"raqo/internal/plan"
	"raqo/internal/server"
	"raqo/internal/stats"
	"raqo/internal/workload"
)

// testNode is one in-process fleet member: a real server.Server behind a
// fleet.Node, served over real TCP so forwarding exercises the same
// network path the multi-process harness does.
type testNode struct {
	addr string
	srv  *server.Server
	node *fleet.Node
	// stopServe cancels the node's serve loop and waits for its drain.
	stopServe func()
}

// startTestFleet builds an n-node fleet on ephemeral localhost ports. The
// listeners are bound first so every node knows the full membership list
// at construction, exactly like a static -peers deployment.
func startTestFleet(t *testing.T, n int) []*testNode {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	nodes := make([]*testNode, n)
	for i := range nodes {
		nodes[i] = newTestNode(t, addrs, i)
		nodes[i].serve(lns[i])
		t.Cleanup(nodes[i].stop)
	}
	return nodes
}

// probeInterval is every test node's ProbeInterval.
const probeInterval = 25 * time.Millisecond

// newTestNode builds (but does not serve) fleet member i of the given
// membership.
func newTestNode(t *testing.T, addrs []string, i int) *testNode {
	t.Helper()
	srv, err := server.New(server.Config{
		RecalInterval: -1, // no background loop; tests drive recalibration
	})
	if err != nil {
		t.Fatal(err)
	}
	peers := make([]string, 0, len(addrs)-1)
	for j, a := range addrs {
		if j != i {
			peers = append(peers, a)
		}
	}
	node, err := fleet.NewNode(fleet.Config{
		NodeID:        addrs[i],
		Peers:         peers,
		ProbeInterval: probeInterval,
		ProbeTimeout:  500 * time.Millisecond,
	}, srv)
	if err != nil {
		t.Fatal(err)
	}
	return &testNode{addr: addrs[i], srv: srv, node: node}
}

// serve starts the node's HTTP front on ln, through the server's own
// connection loop.
func (tn *testNode) serve(ln net.Listener) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = tn.srv.ServeListener(ctx, ln, tn.node.Handler())
	}()
	tn.stopServe = func() { cancel(); <-done }
}

func (tn *testNode) stop() {
	if tn.stopServe != nil {
		tn.stopServe()
		tn.stopServe = nil
	}
}

// startLoops runs every node's prober until test cleanup.
func startLoops(t *testing.T, nodes []*testNode) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	waits := make([]func(), 0, len(nodes))
	for _, tn := range nodes {
		waits = append(waits, tn.node.Start(ctx))
	}
	t.Cleanup(func() {
		cancel()
		for _, w := range waits {
			w()
		}
	})
}

func postJSON(t *testing.T, addr, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post("http://"+addr+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s%s: %v", addr, path, err)
	}
	defer func() { _ = resp.Body.Close() }()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s%s: %v", addr, path, err)
	}
	return resp, b
}

func getJSON(t *testing.T, addr, path string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s%s: %v", addr, path, err)
	}
	defer func() { _ = resp.Body.Close() }()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s%s: %v", addr, path, err)
		}
	} else {
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	return resp
}

// ownerOf returns the fleet-wide owner of a routing key (all rings agree;
// checked by TestFleetRingsAgree).
func ownerOf(nodes []*testNode, key string) string {
	return nodes[0].node.Ring().Owner(key)
}

// nodeByAddr finds a test node by advertise address.
func nodeByAddr(t *testing.T, nodes []*testNode, addr string) *testNode {
	t.Helper()
	for _, tn := range nodes {
		if tn.addr == addr {
			return tn
		}
	}
	t.Fatalf("no node with address %s", addr)
	return nil
}

// TestFleetRingsAgree pins the premise single-hop forwarding rests on:
// every node, built from the same membership in a different order,
// produces an identical ring.
func TestFleetRingsAgree(t *testing.T) {
	nodes := startTestFleet(t, 3)
	for _, key := range []string{"q/Q12", "q/Q3", "q/Q2", "q/All", "t/default", "feedback-journal"} {
		want := nodes[0].node.Ring().Owner(key)
		for _, tn := range nodes[1:] {
			if got := tn.node.Ring().Owner(key); got != want {
				t.Errorf("key %q: node %s places it on %q, node %s on %q",
					key, nodes[0].addr, want, tn.addr, got)
			}
		}
	}
	var st fleet.StatusResponse
	getJSON(t, nodes[0].addr, "/v1/fleet/status", &st)
	if len(st.RingNodes) != 3 || st.VNodes == 0 || st.NodeID != nodes[0].addr {
		t.Errorf("status = %+v", st)
	}
	if st.ModelVersion != 1 {
		t.Errorf("seed model version = %d, want 1", st.ModelVersion)
	}
	if len(st.Peers) != 2 {
		t.Errorf("status lists %d peers, want 2", len(st.Peers))
	}
}

// TestFleetRoutingSingleHop sends each evaluation query to every node and
// asserts it is always answered by the ring owner — at most one forward,
// never a chain — with the non-owners' forward counters moving.
func TestFleetRoutingSingleHop(t *testing.T) {
	nodes := startTestFleet(t, 3)
	for _, q := range []string{"Q12", "Q3", "Q2"} {
		owner := ownerOf(nodes, "q/"+q)
		for _, tn := range nodes {
			resp, body := postJSON(t, tn.addr, "/v1/optimize", fmt.Sprintf(`{"query":%q}`, q))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("optimize %s via %s: HTTP %d: %s", q, tn.addr, resp.StatusCode, body)
			}
			if got := resp.Header.Get("X-Raqo-Fleet-Node"); got != owner {
				t.Errorf("query %s via %s served by %q, ring owner is %q", q, tn.addr, got, owner)
			}
			if !bytes.Contains(body, []byte(`"plan"`)) {
				t.Errorf("optimize %s via %s: response missing plan: %s", q, tn.addr, body)
			}
		}
	}
	// Each node sent each query once, so no request repeats at a node and
	// the response memo answers none; two of three nodes forwarded each
	// query. Just assert some forwarding happened and no misroutes or
	// errors.
	var forwards int64
	for _, tn := range nodes {
		forwards += tn.node.Metrics().Forwards.With("/v1/optimize").Value()
		if v := tn.node.Metrics().Misroutes.Value(); v != 0 {
			t.Errorf("node %s counted %d misroutes", tn.addr, v)
		}
		if v := tn.node.Metrics().ForwardErrors.Value(); v != 0 {
			t.Errorf("node %s counted %d forward errors", tn.addr, v)
		}
	}
	if forwards == 0 {
		t.Error("no forwards counted across the fleet")
	}
}

// TestFleetBatchAndSubmitRouting checks the other routed endpoints' keys:
// batches route by query list, submissions by tenant.
func TestFleetBatchAndSubmitRouting(t *testing.T) {
	nodes := startTestFleet(t, 3)

	batchOwner := ownerOf(nodes, "b/Q12,Q3")
	resp, body := postJSON(t, nodes[0].addr, "/v1/batch", `{"queries":["Q12","Q3"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: HTTP %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Raqo-Fleet-Node"); got != batchOwner {
		t.Errorf("batch served by %q, owner is %q", got, batchOwner)
	}

	subOwner := ownerOf(nodes, "t/alpha")
	resp, body = postJSON(t, nodes[1].addr, "/v1/submit", `{"tenant":"alpha","query":"Q12"}`)
	// The arbiter only knows configured tenants; default config has only
	// "default", so alpha is a 400 — but it must be the *owner's* 400.
	if got := resp.Header.Get("X-Raqo-Fleet-Node"); got != subOwner {
		t.Errorf("submit(alpha) served by %q, owner is %q (HTTP %d: %s)", got, subOwner, resp.StatusCode, body)
	}

	defOwner := ownerOf(nodes, "t/default")
	resp, body = postJSON(t, nodes[2].addr, "/v1/submit", `{"query":"Q12"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Raqo-Fleet-Node"); got != defOwner {
		t.Errorf("submit(default) served by %q, owner is %q", got, defOwner)
	}
}

// TestFleetFeedbackRouting checks that all execution feedback converges
// on the single journal-owner shard: a batch posted to a non-owner lands
// in the owner's store, and nowhere else.
func TestFleetFeedbackRouting(t *testing.T) {
	nodes := startTestFleet(t, 3)
	owner := ownerOf(nodes, "feedback-journal")
	var sender *testNode
	for _, tn := range nodes {
		if tn.addr != owner {
			sender = tn
			break
		}
	}
	obs := `{"observations":[{"signature":"fleet-test","engine":"hive","predictedSeconds":10,"observedSeconds":40,` +
		`"operators":[{"algo":"SMJ","ssGB":5,"csGB":4,"nc":8,"predictedSeconds":10,"observedSeconds":40}]}]}`
	resp, body := postJSON(t, sender.addr, "/v1/feedback", obs)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("feedback: HTTP %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Raqo-Fleet-Node"); got != owner {
		t.Errorf("feedback served by %q, journal owner is %q", got, owner)
	}
	for _, tn := range nodes {
		want := 0
		if tn.addr == owner {
			want = 1
		}
		if got := tn.srv.Recalibrator().Store().Len(); got != want {
			t.Errorf("node %s stores %d observations, want %d", tn.addr, got, want)
		}
	}
}

// TestFleetDegradedMode kills a shard owner and checks the fleet promise:
// requests for its keys are answered locally by whichever node got them —
// never an error — and the failed forward flips the peer to down so the
// next request skips the doomed dial entirely.
func TestFleetDegradedMode(t *testing.T) {
	nodes := startTestFleet(t, 3)
	owner := ownerOf(nodes, "q/Q12")
	victim := nodeByAddr(t, nodes, owner)
	var alive *testNode
	for _, tn := range nodes {
		if tn.addr != owner {
			alive = tn
			break
		}
	}
	victim.stop()

	resp, body := postJSON(t, alive.addr, "/v1/optimize", `{"query":"Q12"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded optimize: HTTP %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Raqo-Fleet-Node"); got != alive.addr {
		t.Errorf("degraded request served by %q, want local %q", got, alive.addr)
	}
	m := alive.node.Metrics()
	if m.ForwardErrors.Value() != 1 || m.Degraded.Value() != 1 {
		t.Errorf("after first degraded request: forwardErrors=%d degraded=%d, want 1/1",
			m.ForwardErrors.Value(), m.Degraded.Value())
	}

	// Second request: the peer is marked down, so no forward is attempted
	// — degraded grows, forward errors do not.
	resp, body = postJSON(t, alive.addr, "/v1/optimize", `{"query":"Q12"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second degraded optimize: HTTP %d: %s", resp.StatusCode, body)
	}
	if m.ForwardErrors.Value() != 1 || m.Degraded.Value() != 2 {
		t.Errorf("after second degraded request: forwardErrors=%d degraded=%d, want 1/2",
			m.ForwardErrors.Value(), m.Degraded.Value())
	}
}

// TestFleetRestartOnSameAddresses: a fleet stopped and rebuilt in the same
// process on the same addresses (what a benchmark's next system is) must
// forward its first request to the new owner, not find it "down". Each
// node pools its own peer connections: on the process-wide pool the new
// forwarder could be handed a connection the old owner had closed.
func TestFleetRestartOnSameAddresses(t *testing.T) {
	// The test's own requests must not ride a pooled connection either.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	optimize := func(addr string) (*http.Response, string) {
		t.Helper()
		resp, err := client.Post("http://"+addr+"/v1/optimize", "application/json", strings.NewReader(`{"query":"Q12"}`))
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = resp.Body.Close() }()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(b)
	}

	nodes := startTestFleet(t, 2)
	addrs := []string{nodes[0].addr, nodes[1].addr}
	owner := ownerOf(nodes, "q/Q12")
	entry := addrs[0]
	if entry == owner {
		entry = addrs[1]
	}
	for gen := 1; gen <= 3; gen++ {
		if gen > 1 {
			for i, a := range addrs {
				ln, err := net.Listen("tcp", a)
				if err != nil {
					t.Fatal(err)
				}
				nodes[i] = newTestNode(t, addrs, i)
				nodes[i].serve(ln)
				t.Cleanup(nodes[i].stop)
			}
		}
		resp, body := optimize(entry)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("generation %d: HTTP %d: %s", gen, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Raqo-Fleet-Node"); got != owner {
			t.Errorf("generation %d: first request served by %q, want the owner %q", gen, got, owner)
		}
		m := nodeByAddr(t, nodes, entry).node.Metrics()
		if m.ForwardErrors.Value() != 0 || m.Degraded.Value() != 0 {
			t.Errorf("generation %d: forwardErrors=%d degraded=%d, want 0/0", gen, m.ForwardErrors.Value(), m.Degraded.Value())
		}
		for _, tn := range nodes {
			tn.stop()
		}
	}
}

// TestFleetHotCache checks that the local server's response memo is the
// exact-hit tier for remote shards too: a repeated forwarded optimize is
// answered from local memory with the owner's bytes, the owner answers
// its own repeat the same way, and a model swap invalidates both.
func TestFleetHotCache(t *testing.T) {
	nodes := startTestFleet(t, 3)
	owner := ownerOf(nodes, "q/Q3")
	var sender *testNode
	for _, tn := range nodes {
		if tn.addr != owner {
			sender = tn
			break
		}
	}
	req := `{"query":"Q3"}`
	resp1, body1 := postJSON(t, sender.addr, "/v1/optimize", req)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("optimize: HTTP %d: %s", resp1.StatusCode, body1)
	}
	if resp1.Header.Get("X-Raqo-Fleet-Cache") == "hit" {
		t.Fatal("first forward claimed a cache hit")
	}
	resp2, body2 := postJSON(t, sender.addr, "/v1/optimize", req)
	if resp2.Header.Get("X-Raqo-Fleet-Cache") != "hit" {
		t.Fatal("repeat forward was not served from the response memo")
	}
	if !bytes.Equal(body1, body2) {
		t.Error("cached response differs from the forwarded one")
	}
	if got := resp2.Header.Get("X-Raqo-Fleet-Node"); got != owner {
		t.Errorf("cached response attributed to %q, want owner %q", got, owner)
	}
	if v := sender.node.Metrics().HotHits.Value(); v != 1 {
		t.Errorf("hot hits = %d, want 1", v)
	}
	if v := sender.srv.Metrics().MemoHits.Value(); v != 1 {
		t.Errorf("sender's memo hits = %d, want 1: the fleet answers from the server's memo, not a tier of its own", v)
	}
	if v := sender.node.Metrics().Forwards.With("/v1/optimize").Value(); v != 1 {
		t.Errorf("forwards = %d, want 1", v)
	}

	// The owner files its own answer in the same tier: its repeat is the
	// stored bytes too.
	ownerNode := nodeByAddr(t, nodes, owner)
	_, body3 := postJSON(t, owner, "/v1/optimize", req)
	if !bytes.Equal(body1, body3) {
		t.Error("the owner's repeat differs from its first answer")
	}
	if v := ownerNode.srv.Metrics().MemoHits.Value(); v != 1 {
		t.Errorf("owner's memo hits = %d, want 1", v)
	}
	if v := ownerNode.node.Metrics().HotHits.Value(); v != 0 {
		t.Errorf("owner counted %d hot hits for a key it owns", v)
	}

	// A new model set must bypass every cached response.
	wire, err := fleet.EncodeModelInfo("test", sender.srv.Recalibrator().Current())
	if err != nil {
		t.Fatal(err)
	}
	wire.Version = 2
	models, err := wire.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if !sender.srv.Recalibrator().Install(2, models, 0) {
		t.Fatal("install failed")
	}
	resp3, _ := postJSON(t, sender.addr, "/v1/optimize", req)
	if resp3.Header.Get("X-Raqo-Fleet-Cache") == "hit" {
		t.Error("request after model swap was served from the stale memo")
	}
	if v := sender.node.Metrics().Forwards.With("/v1/optimize").Value(); v != 2 {
		t.Errorf("forwards = %d after the swap, want 2", v)
	}
}

// TestFleetModelPushRefused: no endpoint takes a model set from a client.
// A POST of a set at the largest version to /v1/fleet/model is refused,
// and after several probe rounds no node has installed it.
func TestFleetModelPushRefused(t *testing.T) {
	nodes := startTestFleet(t, 3)
	startLoops(t, nodes)
	wire, err := fleet.EncodeModelInfo("client", nodes[0].srv.Recalibrator().Current())
	if err != nil {
		t.Fatal(err)
	}
	wire.Version = math.MaxUint64
	for i := range wire.Models {
		wire.Models[i].Intercept = 1e9
	}
	payload, err := json.Marshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if resp, body := postJSON(t, nodes[0].addr, "/v1/fleet/model", string(payload)); resp.StatusCode < 300 {
		t.Fatalf("client model push answered HTTP %d: %s", resp.StatusCode, body)
	}
	time.Sleep(8 * probeInterval)
	for _, tn := range nodes {
		if v := tn.srv.Recalibrator().Current().Version; v != 1 {
			t.Errorf("node %s at model version %d after a refused push, want 1", tn.addr, v)
		}
	}
}

// TestFleetModelNaNSetRefused: a peer serving a model set that prices NaN
// inside the resource space is not followed; the node keeps the last good
// version it pulled.
func TestFleetModelNaNSetRefused(t *testing.T) {
	nodes := startTestFleet(t, 2)
	startLoops(t, nodes)
	a, b := nodes[0], nodes[1]
	wire, err := fleet.EncodeModelInfo("test", a.srv.Recalibrator().Current())
	if err != nil {
		t.Fatal(err)
	}
	wire.Version = 2
	models, err := wire.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if !a.srv.Recalibrator().Install(2, models, 0) {
		t.Fatal("node A refused version 2")
	}
	deadline := time.Now().Add(10 * time.Second)
	for b.srv.Recalibrator().Current().Version < 2 {
		if time.Now().After(deadline) {
			t.Fatal("node B never pulled the good version 2")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Past a smaller input of about 42 GB the ss and ss² terms overflow to
	// +Inf and -Inf, and the sort-merge model prices NaN.
	models, err = wire.Decode()
	if err != nil {
		t.Fatal(err)
	}
	models.Set(plan.SMJ, cost.NewRegression("overflowing", &stats.LinearModel{Coef: []float64{1e307, -1e305, 0, 0, 0, 0, 0}}))
	if !a.srv.Recalibrator().Install(3, models, 0) {
		t.Fatal("node A refused version 3")
	}
	served, err := fleet.EncodeModelInfo("test", a.srv.Recalibrator().Current())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := served.Decode(); err == nil || !strings.Contains(err.Error(), `"overflowing"`) {
		t.Fatalf("Decode = %v, want an error naming the model", err)
	}
	time.Sleep(8 * probeInterval)
	if v := b.srv.Recalibrator().Current().Version; v != 2 {
		t.Errorf("node B at model version %d after its peer served a NaN-pricing set, want 2", v)
	}
	if v := b.node.Metrics().Installs.Value(); v != 1 {
		t.Errorf("node B installed %d times, want 1", v)
	}
}

// feedTrainingGrid streams enough accurate synthetic observations into a
// recalibrator for every algorithm to be trainable.
func feedTrainingGrid(t *testing.T, rec *feedback.Recalibrator) {
	t.Helper()
	grid := workload.DefaultProfileGrid(execsim.Hive())[:60]
	for _, o := range feedback.SyntheticObservations("hive", cost.PaperModels(), grid) {
		if err := rec.Feed(o); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFleetModelDistribution is the convergence contract: one node
// recalibrates, and every peer installs the same fb<version> set exactly
// once — its prober pulls it, the version guard absorbs later rounds, and
// each peer's response memo is dropped exactly once.
func TestFleetModelDistribution(t *testing.T) {
	nodes := startTestFleet(t, 3)
	startLoops(t, nodes)

	// probe is a response-memo entry on every peer. A swap of the peer's
	// model set drops it: the entry filed before the recalibration must be
	// gone once the peer plans under version 2, and the one filed after
	// must survive later probe rounds.
	probe := []byte(`{"query":"Q12"}`)
	file := func(srv *server.Server) {
		_, models, _ := srv.LookupOptimize(probe)
		srv.FileOptimize(probe, []byte("{}\n"), models)
		if _, _, ok := srv.LookupOptimize(probe); !ok {
			t.Fatal("the probe entry was not filed")
		}
	}
	for _, tn := range nodes[1:] {
		file(tn.srv)
	}

	trainer := nodes[0]
	feedTrainingGrid(t, trainer.srv.Recalibrator())
	rec, err := trainer.srv.Recalibrator().Recalibrate()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Version != 2 {
		t.Fatalf("recalibration version = %d, want 2", rec.Version)
	}
	wantNames := trainer.srv.Recalibrator().Current().ModelNames()

	deadline := time.Now().Add(10 * time.Second)
	for _, tn := range nodes[1:] {
		for {
			// Install publishes the version before its OnSwap hook repoints
			// the optimizer; the memo follows the optimizer.
			cur := tn.srv.Recalibrator().Current()
			_, models, ok := tn.srv.LookupOptimize(probe)
			if cur.Version >= 2 && models == cur.Models {
				if ok {
					t.Errorf("node %s kept a response planned under the displaced models", tn.addr)
				}
				file(tn.srv)
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %s never converged to version 2", tn.addr)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	// Give the prober a few more rounds to pull again, then check
	// exactly-once installation.
	time.Sleep(150 * time.Millisecond)
	for _, tn := range nodes[1:] {
		cur := tn.srv.Recalibrator().Current()
		if cur.Version != 2 {
			t.Errorf("node %s at version %d, want 2", tn.addr, cur.Version)
		}
		names := cur.ModelNames()
		if fmt.Sprint(names) != fmt.Sprint(wantNames) {
			t.Errorf("node %s models %v, trainer has %v", tn.addr, names, wantNames)
		}
		for _, name := range names {
			if !strings.HasPrefix(name, "fb2-") {
				t.Errorf("node %s model %q not in the fb2 version set", tn.addr, name)
			}
		}
		if v := tn.node.Metrics().Installs.Value(); v != 1 {
			t.Errorf("node %s installed %d times, want exactly 1", tn.addr, v)
		}
		if _, _, ok := tn.srv.LookupOptimize(probe); !ok {
			t.Errorf("node %s dropped its response memo again after installing version 2", tn.addr)
		}
	}
}

// TestFleetModelPullAfterOutage: a node that was down during the
// recalibration converges via its prober's pull once it can see a peer
// with a newer version.
func TestFleetModelPullAfterOutage(t *testing.T) {
	// Bind both addresses up front so membership is known, but only serve
	// node A; B is "down" while A recalibrates.
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{lnA.Addr().String(), lnB.Addr().String()}
	// Close B's listener so A's probes of it are refused outright, not
	// parked in an unserved accept queue; its port is rebound on "recovery".
	if err := lnB.Close(); err != nil {
		t.Fatal(err)
	}
	a := newTestNode(t, addrs, 0)
	b := newTestNode(t, addrs, 1)
	a.serve(lnA)
	t.Cleanup(a.stop)

	ctx, cancel := context.WithCancel(context.Background())
	waitA := a.node.Start(ctx)
	t.Cleanup(func() { cancel(); waitA() })

	feedTrainingGrid(t, a.srv.Recalibrator())
	if _, err := a.srv.Recalibrator().Recalibrate(); err != nil {
		t.Fatal(err)
	}
	if b.srv.Recalibrator().Current().Version != 1 {
		t.Fatal("down peer somehow received the model")
	}

	// B comes up and starts probing: it must pull version 2 from A.
	lnB, err = net.Listen("tcp", addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	b.serve(lnB)
	t.Cleanup(b.stop)
	waitB := b.node.Start(ctx)
	t.Cleanup(func() { cancel(); waitB() }) // cleanups are LIFO; cancel before waiting
	deadline := time.Now().Add(10 * time.Second)
	for b.srv.Recalibrator().Current().Version < 2 {
		if time.Now().After(deadline) {
			t.Fatal("recovered peer never pulled the newer model version")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if v := b.node.Metrics().Installs.Value(); v != 1 {
		t.Errorf("recovered peer installed %d times, want 1", v)
	}
}

// TestFleetMetricsExposition pins the raqo_fleet_* families on /metrics
// in Prometheus exposition format.
func TestFleetMetricsExposition(t *testing.T) {
	nodes := startTestFleet(t, 3)
	// Generate one forward so the counters exist with real traffic behind
	// them.
	owner := ownerOf(nodes, "q/Q12")
	var sender *testNode
	for _, tn := range nodes {
		if tn.addr != owner {
			sender = tn
			break
		}
	}
	if resp, body := postJSON(t, sender.addr, "/v1/optimize", `{"query":"Q12"}`); resp.StatusCode != 200 {
		t.Fatalf("optimize: HTTP %d: %s", resp.StatusCode, body)
	}

	resp, err := http.Get("http://" + sender.addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		`raqo_fleet_forwards_total{endpoint="/v1/optimize"} 1`,
		"raqo_fleet_forward_errors_total 0",
		"raqo_fleet_degraded_total 0",
		"raqo_fleet_ring_nodes 3",
		"raqo_fleet_peers_healthy 2",
		"raqo_fleet_model_installs_total 0",
		"raqo_fleet_peer_dials_total 1",
		"raqo_fleet_peer_conns_idle 1",
		"# TYPE raqo_fleet_forwards_total counter",
		"# TYPE raqo_fleet_ring_nodes gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestFleetModelWireRoundTrip checks the model wire format end to end,
// including its validation errors.
func TestFleetModelWireRoundTrip(t *testing.T) {
	seed := cost.PaperModels()
	info := &feedback.ModelInfo{Version: 3, Models: seed, TrainedOn: 17}
	w, err := fleet.EncodeModelInfo("n1:1", info)
	if err != nil {
		t.Fatal(err)
	}
	if w.Version != 3 || w.TrainedOn != 17 || len(w.Models) != 2 {
		t.Fatalf("wire = %+v", w)
	}
	models, err := w.Decode()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range w.Models {
		if e.Name == "" || len(e.Coef) == 0 {
			t.Errorf("entry %+v incomplete", e)
		}
	}
	// The decoded models must predict identically to the originals.
	for _, a := range []string{"SMJ", "BHJ"} {
		_ = a
	}
	dec, _ := fleet.EncodeModelInfo("n2:2", &feedback.ModelInfo{Version: 3, Models: models})
	if fmt.Sprint(dec.Models) != fmt.Sprint(w.Models) {
		t.Errorf("round trip drifted:\n%v\nvs\n%v", dec.Models, w.Models)
	}

	bad := *w
	bad.Version = 0
	if _, err := bad.Decode(); err == nil {
		t.Error("zero version accepted")
	}
	bad = *w
	bad.Models = nil
	if _, err := bad.Decode(); err == nil {
		t.Error("empty model list accepted")
	}
	bad = *w
	bad.Models = append([]fleet.ModelEntry{}, w.Models...)
	bad.Models[0].Algo = "XXX"
	if _, err := bad.Decode(); err == nil {
		t.Error("unknown algorithm accepted")
	}
	bad.Models[0] = w.Models[0]
	bad.Models[0].Coef = []float64{1}
	if _, err := bad.Decode(); err == nil {
		t.Error("short coefficient vector accepted")
	}
}

// TestNormalizePeersAndValidation covers the membership-list hygiene the
// serve flags rely on.
func TestNormalizePeersAndValidation(t *testing.T) {
	got, err := fleet.NormalizePeers("127.0.0.1:7001",
		[]string{"127.0.0.1:7002", " 127.0.0.1:7001 ", "127.0.0.1:7003"})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[127.0.0.1:7002 127.0.0.1:7003]" {
		t.Errorf("normalized peers = %v (self must be dropped)", got)
	}
	if _, err := fleet.NormalizePeers("a:1", []string{"b:2", "b:2"}); err == nil {
		t.Error("duplicate peer accepted")
	}
	if _, err := fleet.NormalizePeers("a:1", []string{"no-port"}); err == nil {
		t.Error("address without port accepted")
	}
	if _, err := fleet.NormalizePeers("a:1", []string{"b:99999"}); err == nil {
		t.Error("out-of-range port accepted")
	}
	if _, err := fleet.NormalizePeers("a:1", []string{":8080"}); err == nil {
		t.Error("address without host accepted")
	}
	if _, err := fleet.NormalizePeers("a:1", []string{""}); err == nil {
		t.Error("empty peer accepted")
	}

	srv, err := server.New(server.Config{RecalInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fleet.NewNode(fleet.Config{NodeID: ""}, srv); err == nil {
		t.Error("NewNode accepted empty NodeID")
	}
	if _, err := fleet.NewNode(fleet.Config{NodeID: "bad"}, srv); err == nil {
		t.Error("NewNode accepted portless NodeID")
	}
}
