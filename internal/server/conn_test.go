package server

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// echoHandler answers /echo with what it saw of the request, its body read
// under the handlers' MaxBodyBytes bound, and passes everything else to
// next.
func echoHandler(next http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", next)
	mux.HandleFunc("/echo", func(w http.ResponseWriter, r *http.Request) {
		b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
		if err != nil {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return
		}
		w.Header().Set("X-Echo-Method", r.Method)
		fmt.Fprintf(w, "%s %s %s host=%q cl=%d te=%q close=%v ct=%q x=%q body=%q\n",
			r.Method, r.RequestURI, r.Proto, r.Host, r.ContentLength, r.TransferEncoding, r.Close,
			r.Header.Get("Content-Type"), r.Header.Values("X-Test"), b)
	})
	return mux
}

// wireAnswer is one parsed response of a connection.
type wireAnswer struct {
	status int
	header http.Header
	body   string
}

// exchange writes raw to a new connection to addr, half-closes it, and
// parses every answer the server writes back. methods gives the method of
// each request that reaches a handler, so a HEAD answer is read without a
// body.
func exchange(t *testing.T, addr, raw string, methods ...string) []wireAnswer {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(20 * time.Second))
	go func() {
		_, _ = io.WriteString(c, raw)
		_ = c.(*net.TCPConn).CloseWrite()
	}()
	var out bytes.Buffer
	if _, err := io.Copy(&out, c); err != nil && !isReset(err) {
		t.Fatalf("reading the answers: %v", err)
	}
	answers, err := parseAnswers(out.Bytes(), methods)
	if err != nil {
		t.Fatalf("%v in %q", err, out.String())
	}
	return answers
}

func isReset(err error) bool { return strings.Contains(err.Error(), "connection reset") }

// parseAnswers reads b as a sequence of HTTP responses, interim ones
// included, under http.ReadResponse.
func parseAnswers(b []byte, methods []string) ([]wireAnswer, error) {
	br := bufio.NewReader(bytes.NewReader(b))
	var out []wireAnswer
	for i := 0; ; {
		if _, err := br.Peek(1); err == io.EOF {
			return out, nil
		}
		req := &http.Request{Method: http.MethodGet}
		if i < len(methods) {
			req.Method = methods[i]
		}
		resp, err := http.ReadResponse(br, req)
		if err != nil {
			return out, fmt.Errorf("answer %d: %w", len(out), err)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return out, fmt.Errorf("answer %d body: %w", len(out), err)
		}
		out = append(out, wireAnswer{resp.StatusCode, resp.Header, string(body)})
		if resp.StatusCode >= 200 {
			i++
		}
	}
}

// comparable drops what may differ between two faithful servers: the
// date and the body framing.
func (a wireAnswer) comparable() wireAnswer {
	h := a.header.Clone()
	for _, k := range []string{"Date", "Content-Length", "Transfer-Encoding"} {
		delete(h, k)
	}
	return wireAnswer{a.status, h, a.body}
}

// startDifferential serves one handler on two loopback listeners, one
// through ServeConns and one through the net/http.Server it replaced, and
// returns their addresses.
func startDifferential(t *testing.T, h http.Handler) (loop, reference string) {
	t.Helper()
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- ServeConns(ctx, ln1, h) }()
	ref := &http.Server{Handler: h}
	go func() { _ = ref.Serve(ln2) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("ServeConns: %v", err)
		}
		_ = ref.Close()
	})
	return ln1.Addr().String(), ln2.Addr().String()
}

// TestConnMatchesNetHTTP feeds raw request streams to the connection loop
// and to a net/http.Server with the same handler, and requires the same
// answers: status, headers and body, all but the Date and the framing.
func TestConnMatchesNetHTTP(t *testing.T) {
	s, err := New(Config{RecalInterval: -1, HistoryInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	loop, reference := startDifferential(t, echoHandler(s.Handler()))

	const optimize = `{"query":"Q12"}`
	post := func(path, body string, extra ...string) string {
		return "POST " + path + " HTTP/1.1\r\nHost: raqo\r\nContent-Type: application/json\r\n" +
			strings.Join(extra, "") + fmt.Sprintf("Content-Length: %d\r\n\r\n", len(body)) + body
	}
	// File the optimize answer first, so both servers answer it from the
	// response memo with the same bytes.
	if got := exchange(t, loop, post("/v1/optimize", optimize)); len(got) != 1 || got[0].status != http.StatusOK {
		t.Fatalf("warming the memo: %+v", got)
	}
	overBody := strings.Repeat(" ", MaxBodyBytes+10)
	bigHeader := "X-Test: " + strings.Repeat("a", 8<<10) + "\r\n"
	cases := []struct {
		name    string
		raw     string
		methods []string
		want    []int // the loop's statuses, interim ones included
		// netHTTP, when set, is net/http's differing statuses: a refusal
		// the loop makes on purpose.
		netHTTP []int
	}{
		{name: "keep-alive GET", raw: "GET /echo?q=1 HTTP/1.1\r\nHost: raqo\r\nX-Test: a\r\nX-Test: b\r\n\r\n", want: []int{200}},
		{name: "keep-alive POST", raw: post("/v1/optimize", optimize), want: []int{200}},
		{name: "pipelined pair", raw: "GET /echo HTTP/1.1\r\nHost: raqo\r\n\r\n" + post("/echo", "hello"), want: []int{200, 200}},
		{name: "HEAD", raw: "HEAD /echo HTTP/1.1\r\nHost: raqo\r\n\r\n", methods: []string{"HEAD"}, want: []int{200}},
		{name: "HTTP/1.0", raw: "GET /echo HTTP/1.0\r\n\r\nGET /echo HTTP/1.0\r\n\r\n", want: []int{200}},
		{name: "HTTP/1.0 keep-alive", raw: "GET /echo HTTP/1.0\r\nConnection: keep-alive\r\n\r\nGET /echo HTTP/1.0\r\n\r\n", want: []int{200, 200}},
		{name: "Connection: close", raw: "GET /echo HTTP/1.1\r\nHost: raqo\r\nConnection: close\r\n\r\nGET /echo HTTP/1.1\r\nHost: raqo\r\n\r\n", want: []int{200}},
		{name: "Expect: 100-continue", raw: post("/echo", strings.Repeat("x", 2000), "Expect: 100-continue\r\n"), want: []int{100, 200}},
		{name: "unknown expectation", raw: post("/echo", "x", "Expect: teapot\r\n"), want: []int{417}},
		{name: "chunked body", raw: "POST /echo HTTP/1.1\r\nHost: raqo\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n6;ext=1\r\n world\r\n0\r\n\r\n" + post("/echo", "next"), want: []int{200, 200}},
		{name: "chunked body with trailer", raw: "POST /echo HTTP/1.1\r\nHost: raqo\r\nTransfer-Encoding: chunked\r\nTrailer: X-Sum\r\n\r\n2\r\nhi\r\n0\r\nX-Sum: 1\r\n\r\n", want: []int{200}},
		{name: "trailer field name with a space", raw: "POST /echo HTTP/1.1\r\nHost: raqo\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nhi\r\n0\r\nX Sum: 1\r\n\r\n", want: []int{200}},
		{name: "malformed chunk", raw: "POST /echo HTTP/1.1\r\nHost: raqo\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\nhello\r\n0\r\n\r\n", want: []int{400}},
		{name: "body over MaxBodyBytes", raw: post("/v1/optimize", overBody) + post("/v1/optimize", optimize), want: []int{400, 200}},
		{name: "unread body skipped", raw: post("/v1/model", strings.Repeat("x", 100)) + "GET /v1/optimize HTTP/1.1\r\nHost: raqo\r\n\r\n", want: []int{405, 405}},
		{name: "header block over 1 MB", raw: "GET /echo HTTP/1.1\r\nHost: raqo\r\n" + strings.Repeat(bigHeader, 130) + "\r\n", want: []int{431}},
		{name: "long header line", raw: "GET /echo HTTP/1.1\r\nHost: raqo\r\n" + bigHeader + "\r\n", want: []int{200}},
		{name: "HTTP/1.1 without Host", raw: "GET /echo HTTP/1.1\r\n\r\n", want: []int{400}},
		{name: "two Host headers", raw: "GET /echo HTTP/1.1\r\nHost: a\r\nHost: b\r\n\r\n", want: []int{400}},
		{name: "malformed Host", raw: "GET /echo HTTP/1.1\r\nHost: a b\r\n\r\n", want: []int{400}},
		{name: "space in a header name", raw: "GET /echo HTTP/1.1\r\nHost: raqo\r\nX-Test : a\r\n\r\n", want: []int{400}},
		{name: "control byte in a value", raw: "GET /echo HTTP/1.1\r\nHost: raqo\r\nX-Test: a\x01b\r\n\r\n", want: []int{400}},
		{name: "malformed request line", raw: "GET /echo\r\nHost: raqo\r\n\r\n", want: []int{400}},
		{name: "HTTP/2.0 request line", raw: "GET /echo HTTP/2.0\r\nHost: raqo\r\n\r\n", want: []int{505}},
		{name: "unsupported transfer coding", raw: "POST /echo HTTP/1.1\r\nHost: raqo\r\nTransfer-Encoding: gzip\r\n\r\n", want: []int{501}},
		{name: "Content-Length and Transfer-Encoding", raw: "POST /echo HTTP/1.1\r\nHost: raqo\r\nContent-Length: 4\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nhi\r\n0\r\n\r\n",
			want: []int{400}, netHTTP: []int{200}},
		{name: "differing Content-Lengths", raw: "POST /echo HTTP/1.1\r\nHost: raqo\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nhi!", want: []int{400}},
		{name: "repeated Content-Length", raw: "POST /echo HTTP/1.1\r\nHost: raqo\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nhi", want: []int{200}},
		{name: "malformed Content-Length", raw: "POST /echo HTTP/1.1\r\nHost: raqo\r\nContent-Length: +2\r\n\r\nhi", want: []int{400}},
		{name: "404", raw: "GET /nope HTTP/1.1\r\nHost: raqo\r\n\r\n", want: []int{404}},
		{name: "405 with Allow", raw: "GET /v1/optimize HTTP/1.1\r\nHost: raqo\r\n\r\n", want: []int{405}},
		{name: "absolute-form target", raw: "GET http://other/echo HTTP/1.1\r\nHost: raqo\r\n\r\n", want: []int{200}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := exchange(t, loop, tc.raw, tc.methods...)
			ref := exchange(t, reference, tc.raw, tc.methods...)
			if st := statuses(got); !slices.Equal(st, tc.want) {
				t.Fatalf("loop statuses %v, want %v: %+v", st, tc.want, got)
			}
			if tc.netHTTP != nil {
				if st := statuses(ref); !slices.Equal(st, tc.netHTTP) {
					t.Fatalf("net/http statuses %v, want %v", st, tc.netHTTP)
				}
				return
			}
			if len(got) != len(ref) {
				t.Fatalf("loop wrote %d answers, net/http %d:\n%+v\n%+v", len(got), len(ref), got, ref)
			}
			for i := range got {
				g, r := got[i].comparable(), ref[i].comparable()
				if g.status != r.status || g.body != r.body || !headersEqual(g.header, r.header) {
					t.Errorf("answer %d:\nloop     %d %v %q\nnet/http %d %v %q", i, g.status, g.header, g.body, r.status, r.header, r.body)
				}
			}
		})
	}
}

// TestConnTrailerKeepAlive sends a chunked body with a trailer and waits
// for the answer on the open connection, as a keep-alive client does: the
// loop must answer without waiting for more bytes.
func TestConnTrailerKeepAlive(t *testing.T) {
	s, err := New(Config{RecalInterval: -1, HistoryInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	loop, _ := startDifferential(t, echoHandler(s.Handler()))
	c, err := net.Dial("tcp", loop)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(c)
	for i := 0; i < 2; i++ {
		if _, err := io.WriteString(c, "POST /echo HTTP/1.1\r\nHost: raqo\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nhi\r\n0\r\nX-Sum: 1\r\n\r\n"); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `body="hi"`) {
			t.Fatalf("request %d: HTTP %d %q %v", i, resp.StatusCode, body, err)
		}
	}
}

func statuses(answers []wireAnswer) []int {
	out := make([]int, len(answers))
	for i, a := range answers {
		out[i] = a.status
	}
	return out
}

func headersEqual(a, b http.Header) bool {
	if len(a) != len(b) {
		return false
	}
	//raqolint:ignore maprange an equality test comes to the same in any order
	for k, v := range a {
		if !slices.Equal(v, b[k]) {
			return false
		}
	}
	return true
}

// fakeConn is one connection whose input is fixed: reads drain it, then
// see end of stream, and writes collect in out.
type fakeConn struct {
	mu     sync.Mutex
	in     *bytes.Reader
	out    bytes.Buffer
	closed chan struct{}
	once   sync.Once
}

func newFakeConn(in []byte) *fakeConn {
	return &fakeConn{in: bytes.NewReader(in), closed: make(chan struct{})}
}

func (f *fakeConn) Read(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.in.Read(p)
}

func (f *fakeConn) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.out.Write(p)
}

func (f *fakeConn) written() []byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	return slices.Clone(f.out.Bytes())
}

func (f *fakeConn) Close() error {
	f.once.Do(func() { close(f.closed) })
	return nil
}

func (f *fakeConn) LocalAddr() net.Addr                { return &net.TCPAddr{} }
func (f *fakeConn) RemoteAddr() net.Addr               { return &net.TCPAddr{} }
func (f *fakeConn) SetDeadline(t time.Time) error      { return nil }
func (f *fakeConn) SetReadDeadline(t time.Time) error  { return nil }
func (f *fakeConn) SetWriteDeadline(t time.Time) error { return nil }

// oneConnListener hands out one connection, then blocks until closed.
type oneConnListener struct {
	conn   chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func newOneConnListener(c net.Conn) *oneConnListener {
	l := &oneConnListener{conn: make(chan net.Conn, 1), closed: make(chan struct{})}
	l.conn <- c
	return l
}

func (l *oneConnListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conn:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *oneConnListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *oneConnListener) Addr() net.Addr { return &net.TCPAddr{} }

// seenRequest is what a fuzz handler saw of one request.
type seenRequest struct {
	method, uri string
	length      int64
	body        string
	readFailed  bool
}

// recordingHandler reads each request's body under MaxBodyBytes, records
// what it saw and answers with it. A body longer than the declared
// Content-Length is reported through over.
type recordingHandler struct {
	mu   sync.Mutex
	seen []seenRequest
	over []string
}

func (h *recordingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	h.mu.Lock()
	h.seen = append(h.seen, seenRequest{r.Method, r.RequestURI, r.ContentLength, string(b), err != nil})
	if r.ContentLength >= 0 && int64(len(b)) > r.ContentLength {
		h.over = append(h.over, fmt.Sprintf("%s %s: read %d bytes of a %d-byte body", r.Method, r.RequestURI, len(b), r.ContentLength))
	}
	h.mu.Unlock()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fmt.Fprintf(w, "%s %s %d", r.Method, r.RequestURI, len(b))
}

func (h *recordingHandler) methods() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, len(h.seen))
	for i, s := range h.seen {
		out[i] = s.method
	}
	return out
}

// serveOne runs one connection holding in through serve and returns what
// was written back, failing if the connection is not closed in time.
func serveOne(t *testing.T, in []byte, serve func(net.Listener)) []byte {
	c := newFakeConn(in)
	ln := newOneConnListener(c)
	done := make(chan struct{})
	go func() {
		defer close(done)
		serve(ln)
	}()
	select {
	case <-c.closed:
	case <-time.After(10 * time.Second):
		t.Fatalf("the connection was still open after 10 s on input %q", in)
	}
	_ = ln.Close()
	<-done
	return c.written()
}

// FuzzConnRequests feeds arbitrary bytes as one connection's input to the
// connection loop and to net/http.Server. The loop must not panic, must
// close the connection in time, must write only what parses as a sequence
// of responses, must hand no handler more than its declared body, and must
// not answer 2xx where net/http answers 4xx.
func FuzzConnRequests(f *testing.F) {
	for _, seed := range []string{
		"GET / HTTP/1.1\r\nHost: a\r\n\r\n",
		"POST /x HTTP/1.1\r\nHost: a\r\nContent-Length: 5\r\n\r\nhelloGET /y HTTP/1.1\r\nHost: a\r\n\r\n",
		"POST /x HTTP/1.1\r\nHost: a\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
		"POST /x HTTP/1.1\r\nHost: a\r\nTransfer-Encoding: chunked\r\nTrailer: X\r\n\r\n1\r\nh\r\n0\r\nX: y\r\n\r\n",
		"POST /x HTTP/1.1\r\nHost: a\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\nhi",
		"HEAD /x HTTP/1.1\r\nHost: a\r\n\r\nHEAD /y HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
		"GET /x HTTP/1.0\r\n\r\n",
		"POST /x HTTP/1.1\r\nHost: a\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\nabcd",
		"POST /x HTTP/1.1\r\nHost: a\r\nContent-Length: 3\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
		"GET /x HTTP/1.1\r\nHost: a\r\n folded\r\n\r\n",
		"GET http://h/x?y HTTP/1.1\nHost: a\n\n",
		"POST /x HTTP/1.1\r\nHost: a\r\nContent-Length: 2\r\n\r\nhi\r\nGET /z HTTP/1.1\r\nHost: a\r\n\r\n",
		"CONNECT h:443 HTTP/1.1\r\nHost: h\r\n\r\n",
		"GET / HTTP/1.1\r\nHost: a\r\nTransfer-Encoding: chunked\r\n\r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var loopH, refH recordingHandler
		loopOut := serveOne(t, in, func(ln net.Listener) {
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() { done <- ServeConns(ctx, ln, &loopH) }()
			<-ln.(*oneConnListener).closed
			cancel()
			if err := <-done; err != nil {
				t.Errorf("ServeConns: %v", err)
			}
		})
		refOut := serveOne(t, in, func(ln net.Listener) {
			_ = (&http.Server{Handler: &refH}).Serve(ln)
		})

		got, err := parseAnswers(loopOut, loopH.methods())
		if err != nil {
			t.Fatalf("the loop wrote %q: %v", loopOut, err)
		}
		if len(loopH.over) > 0 {
			t.Fatalf("a handler read past its declared body: %v", loopH.over)
		}
		ref, err := parseAnswers(refOut, refH.methods())
		if err != nil {
			return // nothing to hold the loop to
		}
		gs, rs := finalStatuses(got), finalStatuses(ref)
		for i := 0; i < min(len(gs), len(rs)); i++ {
			if rs[i]/100 == 4 && gs[i]/100 == 2 {
				t.Fatalf("answer %d: net/http %d, the loop %d, on %q", i, rs[i], gs[i], in)
			}
		}
		for i := 0; i < min(len(loopH.seen), len(refH.seen)); i++ {
			if g, r := loopH.seen[i], refH.seen[i]; g != r && rs[i]/100 != 4 {
				t.Fatalf("request %d reached the handler as %+v, under net/http as %+v, on %q", i, g, r, in)
			}
		}
	})
}

// finalStatuses drops interim answers.
func finalStatuses(answers []wireAnswer) []int {
	var out []int
	for _, a := range answers {
		if a.status >= 200 {
			out = append(out, a.status)
		}
	}
	return out
}
