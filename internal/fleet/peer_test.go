package fleet

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"raqo/internal/fleet/ring"
	"raqo/internal/server"
)

// after is what a stub peer does with a connection once it has written
// its answer to a request.
type after int

const (
	keepOpen  after = iota // read the next request off it
	closeConn              // close it at once
	hang                   // neither read nor write again until the caller gives up
)

// stubPeer is a raw TCP listener playing a fleet peer that may be slow,
// dead or lying: it reads each HTTP request off a connection and writes
// whatever bytes answer returns for it, valid HTTP or not.
type stubPeer struct {
	addr     string
	requests atomic.Int64  // complete requests read, over all connections
	open     atomic.Int64  // connections accepted and not yet closed
	closed   chan struct{} // one signal per connection closed
	answer   func(seq int64, body []byte) ([]byte, after)
}

// newStubPeer listens on a loopback port whose address owns key on the
// two-member ring with self, and serves answer until the test ends. seq
// counts requests from 1.
func newStubPeer(tb testing.TB, self, key string, answer func(seq int64, body []byte) ([]byte, after)) *stubPeer {
	tb.Helper()
	var ln net.Listener
	for try := 0; ; try++ {
		var err error
		if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			tb.Fatal(err)
		}
		r, err := ring.New([]string{self, ln.Addr().String()}, 0)
		if err != nil {
			tb.Fatal(err)
		}
		if r.Owner(key) == ln.Addr().String() {
			break
		}
		_ = ln.Close()
		if try == 100 {
			tb.Fatalf("no loopback port owns %q in 100 tries", key)
		}
	}
	s := &stubPeer{addr: ln.Addr().String(), closed: make(chan struct{}, 1024), answer: answer}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		conns = map[net.Conn]bool{}
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns[c] = true
			mu.Unlock()
			s.open.Add(1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.serve(c)
				s.open.Add(-1)
				select {
				case s.closed <- struct{}{}:
				default:
				}
			}()
		}
	}()
	tb.Cleanup(func() {
		_ = ln.Close()
		mu.Lock()
		for c := range conns {
			_ = c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	return s
}

func (s *stubPeer) serve(c net.Conn) {
	defer func() { _ = c.Close() }()
	br := bufio.NewReader(c)
	for {
		req, err := http.ReadRequest(br)
		if err != nil {
			return
		}
		body, err := io.ReadAll(req.Body)
		if err != nil {
			return
		}
		raw, then := s.answer(s.requests.Add(1), body)
		if _, err := c.Write(raw); err != nil || then == closeConn {
			return
		}
		if then == hang {
			_, _ = io.Copy(io.Discard, c) // until the caller closes its end
			return
		}
	}
}

// waitOpen blocks until exactly n of the stub's connections are open.
func (s *stubPeer) waitOpen(tb testing.TB, n int64) {
	tb.Helper()
	deadline := time.After(5 * time.Second)
	for s.open.Load() != n {
		select {
		case <-s.closed:
		case <-deadline:
			tb.Fatalf("stub peer has %d open connections, want %d", s.open.Load(), n)
		}
	}
}

// okAnswer is a well-formed keep-alive 200 carrying body.
func okAnswer(body string) string {
	return fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
}

const (
	stubSelf = "127.0.0.1:1" // the node under test; nothing ever dials it
	stubKey  = "q/Q12"       // owned by the stub peer, so optimizeBody forwards
)

// optimizeBody is the i-th distinct /v1/optimize body for stubKey: the
// response memo is keyed on the bytes, so each one forwards anew.
func optimizeBody(i int) string { return `{"query":"Q12"}` + strings.Repeat(" ", i) }

// newStubNode builds the node under test, a two-member fleet with stub.
func newStubNode(tb testing.TB, stub *stubPeer, forwardTimeout time.Duration) *Node {
	tb.Helper()
	srv, err := server.New(server.Config{RecalInterval: -1})
	if err != nil {
		tb.Fatal(err)
	}
	n, err := NewNode(Config{NodeID: stubSelf, Peers: []string{stub.addr}, ForwardTimeout: forwardTimeout}, srv)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(n.peers.closeIdle)
	return n
}

// post hands one optimize request to the node's routing handler.
func post(ctx context.Context, n *Node, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/optimize", strings.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	n.Handler().ServeHTTP(rec, req)
	return rec
}

// checkDegraded asserts the fleet promise for a failed hop: the client got
// this node's own 200, not an error and not a byte of the peer's answer.
func checkDegraded(t *testing.T, rec *httptest.ResponseRecorder) {
	t.Helper()
	if rec.Code != http.StatusOK || rec.Header().Get(servedByHeader) != stubSelf || !bytes.Contains(rec.Body.Bytes(), []byte(`"plan"`)) {
		t.Errorf("want a degraded local 200, got HTTP %d from %q: %.80s", rec.Code, rec.Header().Get(servedByHeader), rec.Body)
	}
}

// faultCase is one way for a peer to be slow, dead or lying: steps are the
// requests the node forwards in order, with what the stub does to each and
// what the client must see. A case's failing step is its last (the peer is
// marked down by it).
type faultCase struct {
	name    string
	timeout time.Duration // ForwardTimeout; 0 selects 5s
	steps   []faultStep
	// Afterwards: forward errors (== degraded answers, and whether the peer
	// is marked down), connections dialed and connections left pooled.
	errors, dials, idle int64
}

// peerFaults builds the table (a function: four of its answers are 8 MB).
func peerFaults() []faultCase {
	return []faultCase{
		{name: "accepts and never answers", timeout: 100 * time.Millisecond,
			steps:  []faultStep{{then: hang}},
			errors: 1, dials: 1},
		{name: "closes the idle connection between two forwards",
			steps: []faultStep{{answer: okAnswer("a"), then: closeConn, want: "a"}, {answer: okAnswer("b"), want: "b"}},
			dials: 2, idle: 1},
		{name: "closes after reading the request on a reused connection: not re-sent",
			steps:  []faultStep{{answer: okAnswer("a"), want: "a"}, {then: closeConn}},
			errors: 1, dials: 1},
		{name: "closes after reading the request on a new connection",
			steps:  []faultStep{{then: closeConn}},
			errors: 1, dials: 1},
		{name: "answers then appends garbage: connection not reused",
			steps: []faultStep{{answer: okAnswer("a") + "garbage", want: "a"}, {answer: okAnswer("b"), want: "b"}},
			dials: 2, idle: 1},
		{name: "answers twice to one request: second answer never read",
			steps: []faultStep{{answer: okAnswer("a") + okAnswer("stale"), want: "a"}, {answer: okAnswer("b"), want: "b"}},
			dials: 2, idle: 1},
		{name: "content-length longer than the body, then silence", timeout: 100 * time.Millisecond,
			steps:  []faultStep{{answer: "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort", then: hang}},
			errors: 1, dials: 1},
		{name: "content-length longer than the body, then close",
			steps:  []faultStep{{answer: "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort", then: closeConn}},
			errors: 1, dials: 1},
		{name: "malformed status line",
			steps:  []faultStep{{answer: "HTP/1.1 two hundred\r\n\r\n"}},
			errors: 1, dials: 1},
		{name: "unsolicited 100 before the answer",
			steps:  []faultStep{{answer: "HTTP/1.1 100 Continue\r\n\r\n" + okAnswer("a")}},
			errors: 1, dials: 1},
		{name: "chunked body: relayed whole, connection reused",
			steps: []faultStep{
				{answer: "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n2\r\nde\r\n0\r\n\r\n", want: "abcde"},
				{answer: okAnswer("b"), want: "b"}},
			dials: 1, idle: 1},
		{name: "chunked body cut short",
			steps:  []faultStep{{answer: "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n2\r\nd", then: closeConn}},
			errors: 1, dials: 1},
		{name: "connection: close: relayed, connection not pooled",
			steps: []faultStep{
				{answer: "HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 1\r\n\r\na", then: closeConn, want: "a"},
				{answer: okAnswer("b"), want: "b"}},
			dials: 2, idle: 1},
		{name: "HTTP/1.0 answer without a length: relayed to end of stream, not pooled",
			steps: []faultStep{{answer: "HTTP/1.0 200 OK\r\n\r\nabc", then: closeConn, want: "abc"}, {answer: okAnswer("b"), want: "b"}},
			dials: 2, idle: 1},
		{name: "a 429 is an answer: status, Retry-After, Content-Type and node relayed",
			steps: []faultStep{{
				answer: "HTTP/1.1 429 Too Many Requests\r\nContent-Type: text/x-busy\r\nRetry-After: 7\r\nX-Raqo-Fleet-Node: elsewhere:1\r\nContent-Length: 4\r\n\r\nbusy",
				want:   "busy", status: http.StatusTooManyRequests,
				header: map[string]string{"Content-Type": "text/x-busy", "Retry-After": "7", servedByHeader: "elsewhere:1"}}},
			dials: 1, idle: 1},
		{name: "body one byte over the bound: not relayed, not filed",
			steps:  []faultStep{{answer: okAnswer(strings.Repeat("x", maxRespBytes+1))}},
			errors: 1, dials: 1},
		{name: "chunked body over the bound",
			steps: []faultStep{{answer: "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n800001\r\n" +
				strings.Repeat("x", maxRespBytes+1) + "\r\n0\r\n\r\n"}},
			errors: 1, dials: 1},
		{name: "body exactly at the bound: relayed",
			steps: []faultStep{{answer: okAnswer(strings.Repeat("x", maxRespBytes)), want: strings.Repeat("x", maxRespBytes)}},
			dials: 1, idle: 1},
	}
}

// faultStep is one forwarded request of a peerFaults case.
type faultStep struct {
	answer string            // raw bytes the stub writes
	then   after             // and what it does next
	want   string            // body the client must be relayed; "" means a degraded local answer
	status int               // relayed status; 0 means 200
	header map[string]string // relayed headers; servedByHeader defaults to the stub
}

func TestPeerFaults(t *testing.T) {
	for _, tc := range peerFaults() {
		t.Run(tc.name, func(t *testing.T) {
			stub := newStubPeer(t, stubSelf, stubKey, func(seq int64, _ []byte) ([]byte, after) {
				if seq > int64(len(tc.steps)) {
					return nil, closeConn // counted; the request total below fails the case
				}
				return []byte(tc.steps[seq-1].answer), tc.steps[seq-1].then
			})
			timeout := tc.timeout
			if timeout == 0 {
				timeout = 5 * time.Second
			}
			n := newStubNode(t, stub, timeout)
			m := n.Metrics()
			for i, st := range tc.steps {
				start := time.Now()
				rec := post(context.Background(), n, optimizeBody(i))
				if d := time.Since(start); d > timeout+2*time.Second {
					t.Errorf("step %d took %v with a %v forward timeout", i, d, timeout)
				}
				if got := stub.requests.Load(); got != int64(i+1) {
					t.Fatalf("step %d: the stub has read %d requests, want %d (one per forward, none re-sent)", i, got, i+1)
				}
				if st.then != keepOpen {
					stub.waitOpen(t, 0) // the next step, and the pool count, see the close
				}
				if st.want == "" {
					checkDegraded(t, rec)
					if resp, _, ok := n.srv.LookupOptimize([]byte(optimizeBody(i))); ok && !bytes.Equal(resp, rec.Body.Bytes()) {
						t.Errorf("step %d: the memo holds %.40q, not the local answer", i, resp)
					}
					continue
				}
				status := st.status
				if status == 0 {
					status = http.StatusOK
				}
				if rec.Code != status || rec.Body.String() != st.want {
					t.Errorf("step %d: relayed HTTP %d %.40q, want %d %.40q", i, rec.Code, rec.Body, status, st.want)
				}
				want := map[string]string{servedByHeader: stub.addr}
				if st.header != nil {
					want = st.header
				}
				for k, v := range want {
					if got := rec.Header().Get(k); got != v {
						t.Errorf("step %d: relayed %s %q, want %q", i, k, got, v)
					}
				}
			}
			if m.ForwardErrors.Value() != tc.errors || m.Degraded.Value() != tc.errors || n.isDown(stub.addr) != (tc.errors > 0) {
				t.Errorf("forwardErrors=%d degraded=%d down=%v, want %d/%d/%v", m.ForwardErrors.Value(), m.Degraded.Value(),
					n.isDown(stub.addr), tc.errors, tc.errors, tc.errors > 0)
			}
			if m.PeerDials.Value() != tc.dials || m.PeerIdle.Value() != tc.idle {
				t.Errorf("dials=%d idle=%d, want %d/%d", m.PeerDials.Value(), m.PeerIdle.Value(), tc.dials, tc.idle)
			}
			n.peers.closeIdle()
			stub.waitOpen(t, 0)
			if m.PeerIdle.Value() != 0 {
				t.Errorf("idle=%d after closeIdle", m.PeerIdle.Value())
			}
		})
	}
}

// TestPeerClientCancel: the inbound request's context ends while the peer
// sits on the forwarded request. The handler must come back at once — not
// at ForwardTimeout — and must not pool the connection.
func TestPeerClientCancel(t *testing.T) {
	arrived := make(chan struct{}, 1)
	stub := newStubPeer(t, stubSelf, stubKey, func(int64, []byte) ([]byte, after) {
		arrived <- struct{}{}
		return nil, hang
	})
	n := newStubNode(t, stub, time.Minute)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		post(ctx, n, optimizeBody(0))
	}()
	<-arrived // the hop is in flight, the peer silent
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("handler still waiting on the peer 10s after its client left")
	}
	stub.waitOpen(t, 0)
	if m := n.Metrics(); m.PeerIdle.Value() != 0 || m.ForwardErrors.Value() != 1 {
		t.Errorf("idle=%d forwardErrors=%d, want 0/1", m.PeerIdle.Value(), m.ForwardErrors.Value())
	}
}

// brokenConn is a pooled connection whose write fails after taking sent
// bytes of the request.
type brokenConn struct {
	net.Conn
	sent int
}

func (c brokenConn) Write([]byte) (int, error) { return c.sent, errors.New("broken pipe") }
func (brokenConn) SetDeadline(time.Time) error { return nil }
func (brokenConn) Close() error                { return nil }

// TestPeerResendRule pins net/http's rule for a non-idempotent request: it
// goes out again, on a new connection, only if the pooled connection that
// failed took none of its bytes.
func TestPeerResendRule(t *testing.T) {
	for _, tc := range []struct {
		name           string
		sent           int
		errors, served int64
	}{
		{"nothing written: re-sent on a new connection", 0, 0, 1},
		{"partly written: a forward error, the peer never asked again", 10, 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stub := newStubPeer(t, stubSelf, stubKey, func(int64, []byte) ([]byte, after) { return []byte(okAnswer("a")), keepOpen })
			n := newStubNode(t, stub, 5*time.Second)
			n.peers.mu.Lock()
			n.peers.idle[stub.addr] = []*peerConn{{Conn: brokenConn{sent: tc.sent}}}
			n.peers.mu.Unlock()
			rec := post(context.Background(), n, optimizeBody(0))
			if tc.errors == 0 && rec.Body.String() != "a" {
				t.Errorf("relayed %.40q, want the stub's answer", rec.Body)
			}
			if tc.errors == 1 {
				checkDegraded(t, rec)
			}
			if got := n.Metrics().ForwardErrors.Value(); got != tc.errors || stub.requests.Load() != tc.served {
				t.Errorf("forwardErrors=%d, requests at the stub=%d, want %d/%d", got, stub.requests.Load(), tc.errors, tc.served)
			}
		})
	}
}

// TestPeerConcurrentForwards drives 64 forwards to one peer at once: every
// client gets the answer to its own request, the pool never holds more
// than its cap, and Start's wait closes what it holds.
func TestPeerConcurrentForwards(t *testing.T) {
	stub := newStubPeer(t, stubSelf, stubKey, func(_ int64, body []byte) ([]byte, after) {
		return []byte(okAnswer(fmt.Sprint(len(body)))), keepOpen
	})
	n := newStubNode(t, stub, 10*time.Second)
	ctx, cancel := context.WithCancel(context.Background())
	wait := n.Start(ctx)
	m := n.Metrics()
	for round := 0; round < 3; round++ {
		var wg sync.WaitGroup
		for i := 0; i < 64; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				body := optimizeBody(round*64 + i)
				if rec := post(context.Background(), n, body); rec.Code != http.StatusOK || rec.Body.String() != fmt.Sprint(len(body)) {
					t.Errorf("forward %d: HTTP %d %.40q, want the answer to its own %d bytes", i, rec.Code, rec.Body, len(body))
				}
				if idle := m.PeerIdle.Value(); idle > maxIdlePerPeer {
					t.Errorf("%d connections pooled, cap %d", idle, maxIdlePerPeer)
				}
			}(i)
		}
		wg.Wait()
	}
	if m.ForwardErrors.Value() != 0 || m.PeerIdle.Value() == 0 || m.PeerIdle.Value() > maxIdlePerPeer {
		t.Errorf("forwardErrors=%d idle=%d, want 0 and 1..%d", m.ForwardErrors.Value(), m.PeerIdle.Value(), maxIdlePerPeer)
	}
	if m.PeerDials.Value() >= 3*64 {
		t.Errorf("%d dials for %d forwards: nothing was reused", m.PeerDials.Value(), 3*64)
	}
	cancel()
	wait()
	stub.waitOpen(t, 0)
	if m.PeerIdle.Value() != 0 {
		t.Errorf("idle=%d after Start's wait", m.PeerIdle.Value())
	}
}

// FuzzPeerResponse feeds arbitrary bytes to the transport as a peer's
// answer. Whatever they are: no panic, no hang past the timeout, no body
// over the bound, no connection pooled with bytes left in it — and the next
// call gets the answer to its own request.
func FuzzPeerResponse(f *testing.F) {
	for _, tc := range peerFaults() {
		for _, st := range tc.steps {
			if len(st.answer) < 1<<10 {
				f.Add([]byte(st.answer), st.then == closeConn)
			}
		}
	}
	type fuzzed struct {
		raw   []byte
		close bool
	}
	var cur atomic.Pointer[fuzzed]
	stub := newStubPeer(f, stubSelf, stubKey, func(_ int64, body []byte) ([]byte, after) {
		if string(body) == "probe" {
			return []byte(okAnswer("own")), keepOpen
		}
		a := cur.Load()
		if a.close {
			return a.raw, closeConn
		}
		return a.raw, keepOpen
	})
	p := newStubNode(f, stub, time.Second).peers
	const limit = 64
	f.Fuzz(func(t *testing.T, raw []byte, closeAfter bool) {
		if len(raw) > 16<<10 {
			t.Skip("one write no longer reaches the caller in one piece")
		}
		cur.Store(&fuzzed{raw, closeAfter})
		status, _, body, err := p.do(context.Background(), 25*time.Millisecond, stub.addr, http.MethodPost, "/fuzzed", []byte("fuzzed"), limit)
		if err == nil && (len(body) > limit || status < 200) {
			t.Fatalf("answer %q accepted as HTTP %d with %d body bytes, bound %d", raw, status, len(body), limit)
		}
		p.mu.Lock()
		for _, pc := range p.idle[stub.addr] {
			if pc.br.Buffered() != 0 {
				t.Errorf("answer %q: pooled a connection with %d bytes unread", raw, pc.br.Buffered())
			}
		}
		p.mu.Unlock()
		if closeAfter {
			stub.waitOpen(t, 0)
		}
		status, _, body, err = p.do(context.Background(), 5*time.Second, stub.addr, http.MethodPost, "/probe", []byte("probe"), limit)
		if err != nil || status != http.StatusOK || string(body) != "own" {
			t.Fatalf("after answer %q: next call got HTTP %d %q, %v", raw, status, body, err)
		}
	})
}
