// Package fleet turns a single raqo serve process into one node of a
// sharded optimizer fleet: a stateless planning frontend over a
// partitioned state tier. Every node runs the full local stack (warm
// resource-plan cache, cost memo, feedback store, workload arbiter) and
// answers every endpoint; what the fleet layer adds is agreement about
// which node's *state* a request should hit. A deterministic
// consistent-hash ring (internal/fleet/ring) over the static membership
// list partitions the key space — query signatures for /v1/optimize and
// /v1/batch, tenant names for /v1/submit, a single well-known key for the
// feedback journal — and any node proxies a request it does not own to
// the owning shard in exactly one hop (a forwarded request is always
// served where it lands; ring agreement makes that the owner). The fleet
// keeps no cache of its own: an owner's 200 to a forwarded optimize is
// filed in the local server's response memo, the same exact-hit tier that
// answers repeats of the node's own keys, so the next identical request
// skips the hop.
//
// Failure never surfaces to the client: when the owning peer is
// unreachable the request is planned locally against this node's own
// cache — degraded (cold cache for that shard's keys) but correct, since
// every node carries the complete planning stack. A background prober
// rechecks peers and restores forwarding when they return.
//
// Cost-model versions stay coherent fleet-wide by reusing the
// recalibrator's CAS-generation discipline: the node that owns the
// feedback journal shard recalibrates, publishes the versioned set
// ("fb<version>-<algo>") to its peers via POST /v1/fleet/model, and every
// node installs strictly newer versions exactly once
// (feedback.Recalibrator.Install). The prober also pulls from any peer
// reporting a newer version, so a node that was down during a push
// converges on its next probe round.
package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"raqo/internal/cost"
	"raqo/internal/feedback"
	"raqo/internal/fleet/ring"
	"raqo/internal/server"
)

const (
	// hopHeader marks a forwarded request. A request carrying it is always
	// served locally — the single-hop guarantee — so even a transient ring
	// disagreement between peers cannot loop a request.
	hopHeader = "X-Raqo-Fleet-Hop"
	// servedByHeader names the node whose local stack answered a request;
	// forwarded responses carry the owner's ID back through the proxy.
	servedByHeader = "X-Raqo-Fleet-Node"

	// maxBodyBytes mirrors the server's request-body bound.
	maxBodyBytes = 1 << 20
	// maxRespBytes bounds a proxied response body (plan trees for the All
	// query run to a few hundred KB).
	maxRespBytes = 8 << 20

	// feedbackKey is the well-known ring key of the feedback journal: one
	// shard owns all execution feedback, so one node sees the complete
	// drift picture and recalibrates for the fleet.
	feedbackKey = "feedback-journal"
)

// Config configures one fleet node. Zero values select defaults.
type Config struct {
	// NodeID is this node's advertise address (host:port) — its identity
	// on the ring and the address peers dial to reach it.
	NodeID string
	// Peers lists the other fleet members' advertise addresses. The ring
	// is built over Peers + NodeID; every node must be configured with the
	// same total membership for placement to agree.
	Peers []string
	// VNodes is the virtual-node count per physical node;
	// 0 selects ring.DefaultVNodes.
	VNodes int

	// ProbeInterval is the peer health-check period; 0 selects 1s.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health probe; 0 selects 500ms.
	ProbeTimeout time.Duration
	// ForwardTimeout bounds one proxied request; 0 selects 10s.
	ForwardTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.ProbeInterval == 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout == 0 {
		c.ProbeTimeout = 500 * time.Millisecond
	}
	if c.ForwardTimeout == 0 {
		c.ForwardTimeout = 10 * time.Second
	}
	return c
}

// ValidateAddr checks that addr is a dialable host:port with a numeric
// port — the form fleet membership lists require.
func ValidateAddr(addr string) error {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return fmt.Errorf("fleet: bad address %q: %w", addr, err)
	}
	if host == "" {
		return fmt.Errorf("fleet: address %q missing host", addr)
	}
	p, err := strconv.Atoi(port)
	if err != nil || p < 1 || p > 65535 {
		return fmt.Errorf("fleet: address %q has bad port %q", addr, port)
	}
	return nil
}

// NormalizePeers validates a peer list against this node's ID: every
// address must be a valid host:port, duplicates are rejected, and the
// node's own address is dropped if present (operators commonly hand every
// node the identical full membership list). The returned slice preserves
// the input order.
func NormalizePeers(nodeID string, peers []string) ([]string, error) {
	out := make([]string, 0, len(peers))
	seen := make(map[string]bool, len(peers))
	for _, p := range peers {
		p = strings.TrimSpace(p)
		if p == "" {
			return nil, errors.New("fleet: empty peer address")
		}
		if err := ValidateAddr(p); err != nil {
			return nil, err
		}
		if seen[p] {
			return nil, fmt.Errorf("fleet: duplicate peer %q", p)
		}
		seen[p] = true
		if p == nodeID {
			continue // self-in-peers normalization
		}
		out = append(out, p)
	}
	return out, nil
}

// Node is one fleet member: the routing frontend wrapped around a local
// server.Server. Build with NewNode, run with Serve (or Handler + Start
// for in-process use).
type Node struct {
	cfg     Config
	srv     *server.Server
	ring    *ring.Ring
	mux     *http.ServeMux
	peers   *transport // every node-to-node call: forwards, probes, model push/pull
	metrics *Metrics

	mu   sync.Mutex
	down map[string]bool // guarded by mu — peers currently unreachable

	publishc chan *ModelWire
}

// NewNode wraps srv in the fleet routing layer. The fleet metric families
// land on srv's registry, and a hook on srv's recalibrator publishes
// locally trained model versions to the peers.
func NewNode(cfg Config, srv *server.Server) (*Node, error) {
	cfg = cfg.withDefaults()
	if cfg.NodeID == "" {
		return nil, errors.New("fleet: missing NodeID")
	}
	if err := ValidateAddr(cfg.NodeID); err != nil {
		return nil, err
	}
	peers, err := NormalizePeers(cfg.NodeID, cfg.Peers)
	if err != nil {
		return nil, err
	}
	cfg.Peers = peers
	r, err := ring.New(append(append([]string{}, peers...), cfg.NodeID), cfg.VNodes)
	if err != nil {
		return nil, err
	}
	n := &Node{
		cfg:      cfg,
		srv:      srv,
		ring:     r,
		down:     make(map[string]bool, len(peers)),
		publishc: make(chan *ModelWire, 4),
	}
	n.metrics = newMetrics(srv.Metrics().Registry, n)
	n.peers = &transport{self: cfg.NodeID, m: n.metrics, idle: make(map[string][]*peerConn, len(peers))}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/fleet/status", n.handleStatus)
	mux.HandleFunc("GET /v1/fleet/model", n.handleModelGet)
	mux.HandleFunc("POST /v1/fleet/model", n.handleModelPush)
	mux.HandleFunc("POST /v1/optimize", n.routed("/v1/optimize", optimizeKey))
	mux.HandleFunc("POST /v1/batch", n.routed("/v1/batch", batchKey))
	mux.HandleFunc("POST /v1/submit", n.routed("/v1/submit", submitKey))
	mux.HandleFunc("POST /v1/feedback", n.routed("/v1/feedback", func([]byte) string { return feedbackKey }))
	mux.Handle("/", srv.Handler())
	n.mux = mux

	// Publication rides the recalibrator's swap hook. The hook runs inside
	// the recalibration critical section, so it only snapshots and
	// enqueues; the publisher goroutine does the network I/O. Installed
	// swaps came *from* a peer — republishing them would only echo.
	srv.Recalibrator().OnSwap(func(rec feedback.Recalibration, info *feedback.ModelInfo) {
		if rec.Installed {
			return
		}
		w, err := EncodeModelInfo(cfg.NodeID, info, time.Now().UnixNano())
		if err != nil {
			return // opaque seed models (ModelFunc) are not distributable
		}
		select {
		case n.publishc <- w:
		default:
			// Queue full: drop — peers converge via the prober's pull.
		}
	})
	return n, nil
}

// Handler returns the node's routing handler: fleet endpoints, routed
// planning endpoints, and the wrapped server for everything else.
func (n *Node) Handler() http.Handler { return n.mux }

// Ring returns the node's (immutable) hash ring.
func (n *Node) Ring() *ring.Ring { return n.ring }

// Server returns the wrapped local server.
func (n *Node) Server() *server.Server { return n.srv }

// Metrics returns the fleet metric set (primarily for tests).
func (n *Node) Metrics() *Metrics { return n.metrics }

// Start launches the node's background loops — the peer health prober and
// the model publisher — until ctx is cancelled. The returned function
// blocks until both have stopped, then drops the node's idle peer
// connections.
func (n *Node) Start(ctx context.Context) (wait func()) {
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		n.probeLoop(ctx)
	}()
	go func() {
		defer wg.Done()
		n.publishLoop(ctx)
	}()
	return func() {
		wg.Wait()
		n.peers.closeIdle()
	}
}

// Serve runs the wrapped server's listen/drain lifecycle with the fleet
// handler in front and the background loops alongside.
func (n *Node) Serve(ctx context.Context, addr string, ready func(addr string)) error {
	bgCtx, cancel := context.WithCancel(context.Background())
	wait := n.Start(bgCtx)
	defer func() {
		cancel()
		wait()
	}()
	return n.srv.ServeHandler(ctx, addr, n.mux, ready)
}

// --- routing -----------------------------------------------------------

// optimizeKey is the /v1/optimize routing key: the query signature, so
// repeats of one query always land on the shard whose resource-plan cache
// is warm for it. Malformed bodies return "" and fall through to the
// local handler's validation.
func optimizeKey(body []byte) string {
	var req struct {
		Query     string   `json:"query"`
		Relations []string `json:"relations"`
	}
	if json.Unmarshal(body, &req) != nil {
		return ""
	}
	if req.Query != "" {
		return "q/" + req.Query
	}
	if len(req.Relations) > 0 {
		return "q/" + strings.Join(req.Relations, ",")
	}
	return ""
}

// batchKey routes a workload batch by its full query list.
func batchKey(body []byte) string {
	var req struct {
		Queries []string `json:"queries"`
	}
	if json.Unmarshal(body, &req) != nil || len(req.Queries) == 0 {
		return ""
	}
	return "b/" + strings.Join(req.Queries, ",")
}

// submitKey routes arbiter submissions by tenant, so one shard holds one
// tenant's arbiter accounting (in-flight gangs, fair-share debt).
func submitKey(body []byte) string {
	var req struct {
		Tenant string `json:"tenant"`
	}
	if json.Unmarshal(body, &req) != nil {
		return ""
	}
	if req.Tenant == "" {
		return "t/default"
	}
	return "t/" + req.Tenant
}

// routed wraps one endpoint in ring routing: own the key → serve locally;
// a peer owns it → forward one hop (or, for an optimize the local
// server's response memo has seen, answer from it); the owner is down or
// the forward fails → degraded local service, never an error.
func (n *Node) routed(endpoint string, keyFn func([]byte) string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		if err != nil {
			writeFleetError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return
		}
		key := keyFn(body)
		if key == "" {
			// Unroutable (malformed or empty) — the local handler owns the
			// error response.
			n.serveLocal(w, r, body)
			return
		}
		owner := n.ring.Owner(key)
		if r.Header.Get(hopHeader) != "" {
			// Single-hop guarantee: a forwarded request is served where it
			// lands. If we are not the owner the rings disagree — count it,
			// serve it anyway.
			if owner != n.cfg.NodeID {
				n.metrics.Misroutes.Inc()
			}
			n.serveLocal(w, r, body)
			return
		}
		if owner == n.cfg.NodeID {
			n.serveLocal(w, r, body)
			return
		}
		if n.isDown(owner) {
			n.metrics.Degraded.Inc()
			n.serveLocal(w, r, body)
			return
		}
		// The local server's response memo is the one exact-hit tier: it
		// holds the owner's answers to keys this node forwarded beside the
		// node's own, so a repeat costs the same wherever the key lives.
		var planned *cost.Models
		if endpoint == "/v1/optimize" {
			resp, models, ok := n.srv.LookupOptimize(body)
			if ok {
				n.metrics.HotHits.Inc()
				w.Header().Set("Content-Type", "application/json")
				w.Header().Set(servedByHeader, owner)
				w.Header().Set("X-Raqo-Fleet-Cache", "hit")
				_, _ = w.Write(resp)
				return
			}
			planned = models
		}
		n.forward(w, r, owner, endpoint, body, planned)
	}
}

// serveLocal rewinds the handler's own request and hands it to the wrapped server.
func (n *Node) serveLocal(w http.ResponseWriter, r *http.Request, body []byte) {
	w.Header().Set(servedByHeader, n.cfg.NodeID)
	r.Body = io.NopCloser(bytes.NewReader(body))
	r.ContentLength = int64(len(body))
	n.srv.Handler().ServeHTTP(w, r)
}

// forward proxies the request to the owning peer. Any transport failure —
// no answer inside ForwardTimeout, a malformed or an oversized one — marks
// the peer down and falls back to degraded local service. A 200 to an
// optimize is filed in the local response memo under planned, the model set
// the memo lookup that missed ran under (nil for every other endpoint).
func (n *Node) forward(w http.ResponseWriter, r *http.Request, owner, endpoint string, body []byte, planned *cost.Models) {
	status, header, respBody, err := n.peers.do(r.Context(), n.cfg.ForwardTimeout, owner, http.MethodPost, r.URL.RequestURI(), body, maxRespBytes)
	if err != nil {
		// The peer is unreachable (or timed out). Answer locally — a cold
		// cache for this shard's keys, never a client-visible failure —
		// and let the prober restore forwarding when the peer returns.
		n.markPeer(owner, false)
		n.metrics.ForwardErrors.Inc()
		n.metrics.Degraded.Inc()
		n.serveLocal(w, r, body)
		return
	}
	n.metrics.Forwards.With(endpoint).Inc()
	servedBy := header.Get(servedByHeader)
	if servedBy == "" {
		servedBy = owner
	}
	if planned != nil && status == http.StatusOK {
		n.srv.FileOptimize(body, respBody, planned)
	}
	if ct := header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.Header().Set(servedByHeader, servedBy)
	w.WriteHeader(status)
	_, _ = w.Write(respBody)
}

// --- peer health -------------------------------------------------------

// isDown reports whether the prober (or a failed forward) currently
// considers peer unreachable.
func (n *Node) isDown(peer string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.down[peer]
}

// markPeer records a peer's reachability.
func (n *Node) markPeer(peer string, up bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if up {
		delete(n.down, peer)
	} else {
		n.down[peer] = true
	}
}

// healthyPeers counts peers not currently marked down.
func (n *Node) healthyPeers() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.cfg.Peers) - len(n.down)
}

// probeLoop rechecks every peer each ProbeInterval: reachability via
// GET /v1/fleet/status, and model anti-entropy — a peer reporting a newer
// model version than ours is pulled from, which converges nodes that were
// down during a publication push.
func (n *Node) probeLoop(ctx context.Context) {
	t := time.NewTicker(n.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			n.probeOnce(ctx)
		}
	}
}

// probeOnce runs one probe round over the static peer list (in list
// order — deterministic, no map iteration).
func (n *Node) probeOnce(ctx context.Context) {
	for _, peer := range n.cfg.Peers {
		var st StatusResponse
		if err := n.getJSON(ctx, peer, "/v1/fleet/status", &st); err != nil {
			n.markPeer(peer, false)
			continue
		}
		n.markPeer(peer, true)
		if st.ModelVersion > n.srv.Recalibrator().Current().Version {
			n.pullModel(ctx, peer)
		}
	}
}

// getJSON GETs one of a peer's fleet endpoints into v. A peer that gives
// no complete answer inside ProbeTimeout is marked down.
func (n *Node) getJSON(ctx context.Context, peer, path string, v any) error {
	status, _, body, err := n.peers.do(ctx, n.cfg.ProbeTimeout, peer, http.MethodGet, path, nil, maxBodyBytes)
	if err != nil {
		n.markPeer(peer, false)
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("fleet: GET %s%s: HTTP %d", peer, path, status)
	}
	return json.Unmarshal(body, v)
}

// pullModel fetches and installs a peer's live model set.
func (n *Node) pullModel(ctx context.Context, peer string) {
	var w ModelWire
	if n.getJSON(ctx, peer, "/v1/fleet/model", &w) == nil {
		_, _ = n.adopt(&w)
	}
}

// --- model distribution ------------------------------------------------

// publishLoop pushes locally trained model versions to every peer.
func (n *Node) publishLoop(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		case w := <-n.publishc:
			n.publish(ctx, w)
		}
	}
}

// publish POSTs one model version to each peer. A failed push only counts
// an error — the peer's own prober pulls the version once it can see us
// again.
func (n *Node) publish(ctx context.Context, wire *ModelWire) {
	payload, err := json.Marshal(wire)
	if err != nil {
		n.metrics.PublishErrors.Inc()
		return
	}
	for _, peer := range n.cfg.Peers {
		status, _, _, err := n.peers.do(ctx, n.cfg.ForwardTimeout, peer, http.MethodPost, "/v1/fleet/model", payload, maxBodyBytes)
		if err != nil {
			n.markPeer(peer, false)
		}
		if err != nil || status != http.StatusOK {
			n.metrics.PublishErrors.Inc()
			continue
		}
		n.metrics.Publishes.Inc()
	}
}

// adopt installs a received model version if it is strictly newer than
// the live one. Idempotent: replays and older versions return (false, nil).
func (n *Node) adopt(w *ModelWire) (bool, error) {
	models, err := w.Decode()
	if err != nil {
		return false, err
	}
	installed := n.srv.Recalibrator().Install(w.Version, models, w.TrainedOn)
	if installed {
		n.metrics.Installs.Inc()
		if w.PublishedUnixNanos > 0 {
			if lag := time.Since(time.Unix(0, w.PublishedUnixNanos)).Seconds(); lag >= 0 {
				n.metrics.PropagationLag.Observe(lag)
			}
		}
	}
	return installed, nil
}

// --- fleet endpoints ---------------------------------------------------

// PeerStatus is one peer's health in a StatusResponse.
type PeerStatus struct {
	Addr    string `json:"addr"`
	Healthy bool   `json:"healthy"`
}

// StatusResponse is the body of GET /v1/fleet/status.
type StatusResponse struct {
	NodeID        string       `json:"nodeId"`
	RingNodes     []string     `json:"ringNodes"`
	VNodes        int          `json:"vnodes"`
	ModelVersion  uint64       `json:"modelVersion"`
	Peers         []PeerStatus `json:"peers"`
	Forwards      int64        `json:"forwards"`
	ForwardErrors int64        `json:"forwardErrors"`
	Degraded      int64        `json:"degraded"`
}

// handleStatus reports this node's ring view, peer health and model
// version — the prober's health check and the operator's fleet view.
func (n *Node) handleStatus(w http.ResponseWriter, _ *http.Request) {
	st := StatusResponse{
		NodeID:        n.cfg.NodeID,
		RingNodes:     n.ring.Nodes(),
		VNodes:        n.ring.VNodes(),
		ModelVersion:  n.srv.Recalibrator().Current().Version,
		ForwardErrors: n.metrics.ForwardErrors.Value(),
		Degraded:      n.metrics.Degraded.Value(),
	}
	for _, e := range []string{"/v1/optimize", "/v1/batch", "/v1/submit", "/v1/feedback"} {
		st.Forwards += n.metrics.Forwards.With(e).Value()
	}
	for _, p := range n.cfg.Peers {
		st.Peers = append(st.Peers, PeerStatus{Addr: p, Healthy: !n.isDown(p)})
	}
	w.Header().Set(servedByHeader, n.cfg.NodeID)
	server.WriteResult(w, st)
}

// handleModelGet serves the live model set in wire form (the prober's
// pull side).
func (n *Node) handleModelGet(w http.ResponseWriter, _ *http.Request) {
	wire, err := EncodeModelInfo(n.cfg.NodeID, n.srv.Recalibrator().Current(), 0)
	if err != nil {
		// Seed models that are not regressions cannot be distributed; the
		// peer keeps its own seed (they agree by construction).
		writeFleetError(w, http.StatusConflict, err)
		return
	}
	server.WriteResult(w, wire)
}

// handleModelPush ingests a peer's published model version.
func (n *Node) handleModelPush(w http.ResponseWriter, r *http.Request) {
	var wire ModelWire
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&wire); err != nil {
		writeFleetError(w, http.StatusBadRequest, fmt.Errorf("bad model body: %w", err))
		return
	}
	if _, err := dec.Token(); err != io.EOF {
		writeFleetError(w, http.StatusBadRequest, errors.New("bad model body: trailing data after the JSON value"))
		return
	}
	installed, err := n.adopt(&wire)
	if err != nil {
		writeFleetError(w, http.StatusBadRequest, err)
		return
	}
	server.WriteResult(w, map[string]any{
		"installed": installed,
		"version":   n.srv.Recalibrator().Current().Version,
	})
}

// writeFleetError mirrors the server's JSON error body.
func writeFleetError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = server.WriteJSON(w, server.ErrorResponse{Error: err.Error()})
}
