// Package fleet turns a single raqo serve process into one node of a
// sharded optimizer fleet: a stateless planning frontend over a
// partitioned state tier. Every node runs the full local stack (response
// memo, cost memo, feedback store, workload arbiter) and
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
// Cost-model versions stay coherent fleet-wide by one path, the prober's
// pull: the node that owns the feedback journal shard recalibrates, and
// every other node, on seeing a peer report a newer version in
// GET /v1/fleet/status, fetches the versioned set ("fb<version>-<algo>")
// from GET /v1/fleet/model and installs it through
// feedback.Recalibrator.Install, whose strictly-newer guard makes each
// version swap once. No endpoint accepts a model set from a client.
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

	"raqo/internal/canonjson"
	"raqo/internal/cost"
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
	// cacheHeader marks an answer from the entry node's response memo.
	cacheHeader = "X-Raqo-Fleet-Cache"

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
	// same total membership for placement to agree, and every ring has
	// ring.DefaultVNodes virtual nodes per member.
	Peers []string

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
	peers   *transport // every node-to-node call: forwards, probes, model pulls
	metrics *Metrics

	// nodeValue is the servedByHeader value naming each member. Answers
	// share them: the connection loop and net/http only read a handler's
	// header values.
	nodeValue map[string][]string

	mu   sync.Mutex
	down map[string]bool // guarded by mu — peers currently unreachable
}

// Header values shared as nodeValue's are: a JSON answer's Content-Type,
// and cacheHeader's.
var (
	jsonType = []string{"application/json"}
	cacheHit = []string{"hit"}
)

// NewNode wraps srv in the fleet routing layer. The fleet metric families
// land on srv's registry.
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
	r, err := ring.New(append(append([]string{}, peers...), cfg.NodeID), ring.DefaultVNodes)
	if err != nil {
		return nil, err
	}
	n := &Node{
		cfg:  cfg,
		srv:  srv,
		ring: r,
		down: make(map[string]bool, len(peers)),
	}
	n.metrics = newMetrics(srv.Metrics().Registry, n)
	n.peers = &transport{self: cfg.NodeID, m: n.metrics, idle: make(map[string][]*peerConn, len(peers))}

	n.nodeValue = make(map[string][]string, r.Size())
	for _, id := range r.Nodes() {
		n.nodeValue[id] = []string{id}
	}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/fleet/status", n.handleStatus)
	mux.HandleFunc("GET /v1/fleet/model", n.handleModelGet)
	for _, rt := range []struct {
		endpoint string
		key      func([]byte) string
	}{
		{"/v1/optimize", optimizeKey},
		{"/v1/batch", batchKey},
		{"/v1/submit", submitKey},
		{"/v1/feedback", func([]byte) string { return feedbackKey }},
	} {
		pattern := "POST " + rt.endpoint
		mux.HandleFunc(pattern, n.routed(rt.endpoint, rt.key, srv.Route(pattern)))
	}
	mux.Handle("/", srv.Handler())
	n.mux = mux
	return n, nil
}

// Handler returns the node's routing handler: fleet endpoints, routed
// planning endpoints, and the wrapped server for everything else.
func (n *Node) Handler() http.Handler { return n.mux }

// Ring returns the node's (immutable) hash ring.
func (n *Node) Ring() *ring.Ring { return n.ring }

// Metrics returns the fleet metric set (primarily for tests).
func (n *Node) Metrics() *Metrics { return n.metrics }

// Start launches the node's peer health prober until ctx is cancelled.
// The returned function blocks until it has stopped, then drops the
// node's idle peer connections.
func (n *Node) Start(ctx context.Context) (wait func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		n.probeLoop(ctx)
	}()
	return func() {
		<-done
		n.peers.closeIdle()
	}
}

// Serve runs the wrapped server's listen/drain lifecycle with the fleet
// handler in front and the prober alongside.
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
// repeats of one query always land on the shard whose response and cost
// memos are warm for it. Malformed bodies return "" and fall through to the
// local handler's validation. A body of plain string members among
// "query" and "mode" is read by the canonical scanner; any other, by
// encoding/json, which gives the same key for what the scanner takes.
func optimizeKey(body []byte) string {
	var m [2][]byte
	if canonjson.StringObject(body, optimizeMembers, m[:]) {
		if len(m[0]) == 0 {
			return ""
		}
		return "q/" + string(m[0])
	}
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

// optimizeMembers are the keys of a canonical optimize body.
var optimizeMembers = []string{"query", "mode"}

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
// tenant's arbiter accounting (in-flight gangs, fair-share debt). A
// canonical body is read by the scanner the submit handler decodes it
// with (server.ScanSubmit); any other, by encoding/json.
func submitKey(body []byte) string {
	m, ok := server.ScanSubmit(body)
	tenant := m[0]
	if !ok {
		var req struct {
			Tenant string `json:"tenant"`
		}
		if json.Unmarshal(body, &req) != nil {
			return ""
		}
		tenant = []byte(req.Tenant)
	}
	if len(tenant) == 0 {
		return "t/default"
	}
	return "t/" + string(tenant)
}

// routed wraps one endpoint in ring routing: own the key → serve locally;
// a peer owns it → forward one hop (or, for an optimize the local
// server's response memo has seen, answer from it); the owner is down or
// the forward fails → degraded local service, never an error. local is
// the wrapped server's handler of the endpoint.
func (n *Node) routed(endpoint string, keyFn func([]byte) string, local http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var body []byte
		var err error
		if size := r.ContentLength; size >= 0 && size <= server.MaxBodyBytes {
			body = make([]byte, size)
			_, err = io.ReadFull(r.Body, body)
		} else {
			body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, server.MaxBodyBytes))
		}
		if err != nil {
			server.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return
		}
		key := keyFn(body)
		if key == "" {
			// Unroutable (malformed or empty) — the local handler owns the
			// error response.
			n.serveLocal(w, r, body, local)
			return
		}
		owner := n.ring.Owner(key)
		if hop := r.Header[hopHeader]; len(hop) > 0 && hop[0] != "" {
			// Single-hop guarantee: a forwarded request is served where it
			// lands. If we are not the owner the rings disagree — count it,
			// serve it anyway.
			if owner != n.cfg.NodeID {
				n.metrics.Misroutes.Inc()
			}
			n.serveLocal(w, r, body, local)
			return
		}
		if owner == n.cfg.NodeID {
			n.serveLocal(w, r, body, local)
			return
		}
		if n.isDown(owner) {
			n.metrics.Degraded.Inc()
			n.serveLocal(w, r, body, local)
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
				h := w.Header()
				h["Content-Type"] = jsonType
				h[servedByHeader] = n.nodeValue[owner]
				h[cacheHeader] = cacheHit
				_, _ = w.Write(resp)
				return
			}
			planned = models
		}
		n.forward(w, r, owner, endpoint, body, planned, local)
	}
}

// replay is a routed request's body, read once, handed to the local handler.
type replay struct{ bytes.Reader }

func (*replay) Close() error { return nil }

// serveLocal rewinds the request's body and hands it to the wrapped
// server's handler of its endpoint.
func (n *Node) serveLocal(w http.ResponseWriter, r *http.Request, body []byte, local http.HandlerFunc) {
	w.Header()[servedByHeader] = n.nodeValue[n.cfg.NodeID]
	rb := new(replay)
	rb.Reset(body)
	r.Body = rb
	r.ContentLength = int64(len(body))
	local(w, r)
}

// forward proxies the request to the owning peer. Any transport failure —
// no answer inside ForwardTimeout, a malformed or an oversized one — marks
// the peer down and falls back to degraded local service. A 200 to an
// optimize is filed in the local response memo under planned, the model set
// the memo lookup that missed ran under (nil for every other endpoint).
func (n *Node) forward(w http.ResponseWriter, r *http.Request, owner, endpoint string, body []byte, planned *cost.Models, local http.HandlerFunc) {
	status, relay, respBody, err := n.peers.do(r.Context(), n.cfg.ForwardTimeout, owner, http.MethodPost, r.URL.RequestURI(), body, maxRespBytes)
	if err != nil {
		// The peer is unreachable (or timed out). Answer locally — a cold
		// cache for this shard's keys, never a client-visible failure —
		// and let the prober restore forwarding when the peer returns.
		n.markPeer(owner, false)
		n.metrics.ForwardErrors.Inc()
		n.metrics.Degraded.Inc()
		n.serveLocal(w, r, body, local)
		return
	}
	n.metrics.Forwards.With(endpoint).Inc()
	if planned != nil && status == http.StatusOK {
		n.srv.FileOptimize(body, respBody, planned)
	}
	h := w.Header()
	if ct := relay[relayContentType]; ct != "" {
		h["Content-Type"] = headerValue(ct, jsonType)
	}
	if ra := relay[relayRetryAfter]; ra != "" {
		h["Retry-After"] = []string{ra}
	}
	servedBy := relay[relayNode]
	if servedBy == "" {
		servedBy = owner
	}
	h[servedByHeader] = headerValue(servedBy, n.nodeValue[servedBy])
	w.WriteHeader(status)
	_, _ = w.Write(respBody)
}

// headerValue is the header value v: shared, if it is shared's.
func headerValue(v string, shared []string) []string {
	if len(shared) == 1 && shared[0] == v {
		return shared
	}
	return []string{v}
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
// GET /v1/fleet/status, and model distribution — a peer reporting a newer
// model version than ours is pulled from. This is the only way a model
// version reaches a peer, so ProbeInterval bounds fleet convergence.
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
	status, _, body, err := n.peers.do(ctx, n.cfg.ProbeTimeout, peer, http.MethodGet, path, nil, server.MaxBodyBytes)
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
		n.adopt(&w)
	}
}

// adopt installs a pulled model version if it is strictly newer than the
// live one. Idempotent: replays, older versions and undecodable sets are
// ignored.
func (n *Node) adopt(w *ModelWire) {
	models, err := w.Decode()
	if err != nil {
		return
	}
	if n.srv.Recalibrator().Install(w.Version, models, w.TrainedOn) {
		n.metrics.Installs.Inc()
	}
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
	wire, err := EncodeModelInfo(n.cfg.NodeID, n.srv.Recalibrator().Current())
	if err != nil {
		// Seed models that are not regressions cannot be distributed; the
		// peer keeps its own seed (they agree by construction).
		server.WriteError(w, http.StatusConflict, err)
		return
	}
	server.WriteResult(w, wire)
}
