package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The connection loop: every listener of the service, the API port (a
// fleet node's included) and the -pprof one, speaks HTTP/1.1 through
// ServeConns. One goroutine per
// connection parses each request itself and calls the unchanged
// http.Handler with a request, header map and buffered ResponseWriter that
// the connection reuses, then writes the whole answer, Content-Length and a
// per-second Date included, in one Write. What net/http.Server gave is kept
// explicitly: a client that goes away cancels the request's context (the
// watcher below), Shutdown's drain (ServeConns), the body and header
// bounds, 100-continue, and the refusals that keep one request from
// smuggling another.

// Connection-loop bounds. maxHeaderBytes is net/http's
// DefaultMaxHeaderBytes plus the 4096 bytes of slack its server allows;
// readBufferBytes is a connection's read buffer, which also bounds a
// chunked body's trailer; postHandlerDiscard is how much of a body the
// handler left unread is skipped to keep the connection (net/http's
// maxPostHandlerReadBytes); maxKeptBuffer and maxKeptFields bound the
// buffers and header fields a connection keeps for its next request, so
// one large request does not pin memory for the connection's life;
// lingerTimeout is how long a connection closed on an unread request
// waits for the client to read the answer first.
const (
	maxHeaderBytes     = 1<<20 + 4096
	readBufferBytes    = 4 << 10
	postHandlerDiscard = 256 << 10
	maxKeptBuffer      = 64 << 10
	maxKeptFields      = 64
	lingerTimeout      = 500 * time.Millisecond
	// watchDelay is how long a handler runs before its connection is
	// watched for the client going away. A memo hit or a submit is answered
	// sooner and never pays for the watch.
	watchDelay = time.Millisecond
)

// ServeConns serves HTTP/1.1 with h on every connection ln accepts until
// ctx is done or accepting fails, then drains: the listener closes, idle
// connections close, and requests in flight get drainTimeout to finish.
// It returns the accept error, or "server: drain: …" when the drain runs
// out of time (the connections still open are then closed), or nil.
func ServeConns(ctx context.Context, ln net.Listener, h http.Handler) error {
	set := &connSet{h: h, conns: make(map[*conn]struct{}), drained: make(chan struct{})}
	accepted := make(chan error, 1)
	go func() { accepted <- set.accept(ln) }()
	var err error
	select {
	case err = <-accepted:
		_ = ln.Close()
	case <-ctx.Done():
		_ = ln.Close()
		<-accepted // nil once the listener is closed
	}
	if derr := set.drain(); err == nil {
		err = derr
	}
	return err
}

// connSet is one listener's live connections.
type connSet struct {
	h http.Handler

	mu      sync.Mutex
	conns   map[*conn]struct{} // guarded by mu
	closing atomic.Bool        // set once by drain, with mu held
	drained chan struct{}      // closed when closing and conns is empty
}

// accept runs the listener until it is closed (nil) or fails for good.
// Temporary failures, such as running out of descriptors, back off and
// retry as net/http.Server does.
func (s *connSet) accept(ln net.Listener) error {
	var delay time.Duration
	for {
		rwc, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Temporary() {
				delay = min(max(2*delay, 5*time.Millisecond), time.Second)
				time.Sleep(delay)
				continue
			}
			return err
		}
		delay = 0
		c := newConn(s, rwc)
		s.mu.Lock()
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		//raqolint:ignore leak drain closes the socket, which ends serve; remove reports its exit through drained
		go c.serve()
	}
}

// drain closes the idle connections and waits drainTimeout for the others
// to finish their request. It runs once accept has returned.
func (s *connSet) drain() error {
	s.mu.Lock()
	s.closing.Store(true)
	//raqolint:ignore maprange closing every idle connection comes to the same in any order
	for c := range s.conns {
		if c.idle.Load() {
			_ = c.rwc.Close()
		}
	}
	if len(s.conns) == 0 {
		close(s.drained)
	}
	s.mu.Unlock()
	t := time.NewTimer(drainTimeout)
	defer t.Stop()
	select {
	case <-s.drained:
		return nil
	case <-t.C:
	}
	s.mu.Lock()
	//raqolint:ignore maprange closing every connection comes to the same in any order
	for c := range s.conns {
		_ = c.rwc.Close()
	}
	s.mu.Unlock()
	return fmt.Errorf("server: drain: %w", context.DeadlineExceeded)
}

// remove forgets a closed connection.
func (s *connSet) remove(c *conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, c)
	if s.closing.Load() && len(s.conns) == 0 {
		close(s.drained)
	}
}

// conn is one client connection and everything its requests reuse.
type conn struct {
	set        *connSet
	rwc        net.Conn
	remote     string
	headReader // br reads c itself, see Read
	ctx        context.Context
	cancel     context.CancelFunc
	// idle is set while c waits for a request's first byte. Drain closes
	// an idle connection; one going idle during the drain closes itself.
	idle atomic.Bool

	blank http.Request // carries only ctx; each request starts as a copy
	req   http.Request
	hdr   http.Header // req.Header, cleared for each request
	url   url.URL     // req.URL's storage, copied from parsed
	body  body
	w     response

	// The previous request's request target and header lines: a repeat
	// reuses their strings instead of allocating new ones.
	target string
	parsed url.URL
	keys   []string
	vals   []string

	lastPost   bool // the previous request was a POST
	dateSec    int64
	date       []byte
	out        []byte // the answer on the wire
	sortedKeys []string

	// The watcher: after watchDelay, a handler whose body has been read to
	// its end, with nothing pipelined behind it, gets one read on the raw
	// connection, so a client that goes away cancels ctx.
	timer     *time.Timer
	watchDone chan struct{}
	mu        sync.Mutex // guards the five fields below
	handling  bool       // a handler runs
	late      bool       // watchDelay has passed since it started
	bodyDone  bool       // its body was read to the end
	watching  bool       // a watch read is in flight
	stopping  bool       // the watch read is being aborted
	// Written by the watch read, read after watchDone hands them back.
	peeked bool // peek holds a byte the watch read took
	peek   [1]byte
	dead   bool // the watch read failed: the client is gone
}

func newConn(set *connSet, rwc net.Conn) *conn {
	ctx, cancel := context.WithCancel(context.Background())
	c := &conn{set: set, rwc: rwc, remote: rwc.RemoteAddr().String(), ctx: ctx, cancel: cancel,
		hdr: make(http.Header), watchDone: make(chan struct{}, 1)}
	c.idle.Store(true)
	c.blank = *c.blank.WithContext(ctx)
	c.br = bufio.NewReaderSize(c, readBufferBytes)
	c.body.c = c
	c.w.c = c
	c.w.header = make(http.Header)
	return c
}

// Read feeds br: first a byte an aborted watch read took, then the
// connection.
func (c *conn) Read(p []byte) (int, error) {
	if c.peeked {
		c.peeked = false
		p[0] = c.peek[0]
		return 1, nil
	}
	return c.rwc.Read(p)
}

// serve runs c's requests one after another until one closes it.
func (c *conn) serve() {
	defer func() {
		c.cancel()
		if c.timer != nil {
			c.timer.Stop()
		}
		_ = c.rwc.Close()
		c.set.remove(c)
	}()
	for c.next() {
	}
}

// next reads, handles and answers one request, and reports whether the
// connection stays open for another.
func (c *conn) next() bool {
	if c.idle.Store(true); c.set.closing.Load() {
		return false
	}
	_, err := c.br.Peek(1)
	c.idle.Store(false)
	if err != nil {
		return false
	}
	r, bad := c.readRequest()
	if r == nil {
		c.refuse(bad)
		return false
	}
	w := &c.w
	if v := r.Header["Expect"]; len(v) > 0 && v[0] != "" && !hasToken(v[0], "100-continue") {
		w.header.Set("Connection", "close")
		w.WriteHeader(http.StatusExpectationFailed)
		c.respond(r)
		return false
	}

	c.mu.Lock()
	c.handling, c.late, c.bodyDone = true, false, r.Body == http.NoBody
	c.mu.Unlock()
	if c.timer == nil {
		c.timer = time.AfterFunc(watchDelay, c.watchLate)
	} else {
		c.timer.Reset(watchDelay)
	}
	ok := c.handle(r)
	c.stopWatch()
	return ok && c.respond(r)
}

// handle runs the handler. A panic in it is logged with its stack and
// closes the connection unanswered, as net/http.Server does.
func (c *conn) handle(r *http.Request) (ok bool) {
	defer func() {
		if p := recover(); p != nil {
			if p != http.ErrAbortHandler {
				buf := make([]byte, 64<<10)
				log.Printf("server: panic serving %s: %v\n%s", c.remote, p, buf[:runtime.Stack(buf, false)])
			}
			ok = false
		}
	}()
	c.set.h.ServeHTTP(&c.w, r)
	return true
}

// badRequest is a request refused before any handler saw it, answered in
// net/http.Server's words.
type badRequest struct {
	code int
	msg  string // net/http's detail after the status text, if any
}

// readRequest parses the next request into c.req. On a malformed one it
// returns nil and the answer to refuse it with, which is nil too when the
// connection ended between requests.
func (c *conn) readRequest() (*http.Request, *badRequest) {
	c.start()
	if len(c.keys) > maxKeptFields {
		// A map keeps its buckets when cleared: let this one go.
		c.hdr, c.keys, c.vals = make(http.Header), nil, nil
	}
	if c.lastPost {
		// RFC 7230 section 3 tolerance for clients that end a POST body
		// with a stray CRLF, as net/http allows.
		peek, _ := c.br.Peek(4)
		n := 0
		for n < len(peek) && (peek[n] == '\r' || peek[n] == '\n') {
			n++
		}
		_, _ = c.br.Discard(n)
	}
	line, err := c.readLine()
	if err != nil {
		return nil, lineError(err)
	}
	r := &c.req
	*r = c.blank
	method, rest, ok1 := bytes.Cut(line, []byte(" "))
	target, proto, ok2 := bytes.Cut(rest, []byte(" "))
	if !ok1 || !ok2 || !validToken(method) {
		return nil, &badRequest{code: http.StatusBadRequest}
	}
	r.Method = internMethod(method)
	c.lastPost = r.Method == http.MethodPost
	if r.Proto, r.ProtoMajor, r.ProtoMinor, ok1 = parseProto(proto); !ok1 {
		return nil, &badRequest{code: http.StatusBadRequest}
	}
	if !c.parseTarget(r, target) {
		return nil, &badRequest{code: http.StatusBadRequest}
	}

	h := c.hdr
	clear(h)
	r.Header = h
	spaceInName := false
	for i := 0; ; i++ {
		line, err := c.readLine()
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return nil, lineError(err)
		}
		if len(line) == 0 {
			c.keys, c.vals = c.keys[:i], c.vals[:i]
			break
		}
		k, v, space, ok := splitField(line)
		if !ok {
			return nil, &badRequest{code: http.StatusBadRequest}
		}
		spaceInName = spaceInName || space
		key, val := c.field(i, k, v)
		switch key {
		case "Content-Length":
			c.frame.addCL(v)
		case "Transfer-Encoding":
			c.frame.addTE(v)
		case "Trailer":
			c.frame.addTrailer(v)
		}
		if vv := h[key]; vv != nil {
			h[key] = append(vv, val)
		} else {
			h[key] = c.vals[i : i+1 : i+1]
		}
	}

	hosts, haveHost := h["Host"]
	if len(hosts) > 1 {
		return nil, &badRequest{code: http.StatusBadRequest}
	}
	if r.Host = r.URL.Host; r.Host == "" && haveHost {
		r.Host = hosts[0]
	}
	if bad := c.framing(r); bad != nil {
		return nil, bad
	}
	switch {
	case r.ProtoMajor != 1:
		return nil, &badRequest{http.StatusHTTPVersionNotSupported, "unsupported protocol version"}
	case r.ProtoMinor >= 1 && !haveHost && r.Method != http.MethodConnect:
		return nil, &badRequest{http.StatusBadRequest, "missing required Host header"}
	case len(hosts) == 1 && !validHost(hosts[0]):
		return nil, &badRequest{http.StatusBadRequest, "malformed Host header"}
	case spaceInName:
		return nil, &badRequest{http.StatusBadRequest, "invalid header name"}
	}
	delete(h, "Host")
	r.Close = shouldClose(r)
	r.RemoteAddr = c.remote
	return r, nil
}

// lineError maps a failed line read onto the refusal: 431 past the header
// bound, no answer when the client closed between requests, else 400.
func lineError(err error) *badRequest {
	switch {
	case errors.Is(err, errHeaderTooLarge):
		return &badRequest{code: http.StatusRequestHeaderFieldsTooLarge}
	case err == io.EOF:
		return nil
	}
	var ne net.Error
	if errors.As(err, &ne) || errors.Is(err, net.ErrClosed) {
		return nil // a dead connection takes no answer
	}
	return &badRequest{code: http.StatusBadRequest}
}

// headReader reads message heads off a buffered connection: lines
// counted against maxHeaderBytes, the fields that frame the body, and a
// chunked body's trailer. The connection loop reads requests with it and
// AnswerReader a peer's answers.
type headReader struct {
	br    *bufio.Reader
	line  []byte        // a line longer than br's buffer
	read  int           // head bytes read for the current message
	frame framingFields // the current message's
}

// start readies h for the next message's head.
func (h *headReader) start() {
	h.read = 0
	if cap(h.line) > maxKeptBuffer {
		h.line = nil
	}
	h.frame.reset()
}

var errHeaderTooLarge = errors.New("message header over the bound")

// readLine returns the next line without its CRLF or LF, valid until the
// next read, counting it against the header bound.
func (l *headReader) readLine() ([]byte, error) {
	l.line = l.line[:0]
	for {
		b, err := l.br.ReadSlice('\n')
		l.read += len(b)
		if l.read > maxHeaderBytes {
			return nil, errHeaderTooLarge
		}
		switch {
		case err == bufio.ErrBufferFull:
			l.line = append(l.line, b...)
			continue
		case err == io.EOF && len(b)+len(l.line) > 0:
			// A last line without its end; net/http takes it as a line.
			err = nil
		case err != nil:
			return nil, err
		}
		if len(l.line) > 0 {
			b = append(l.line, b...)
			l.line = b
		}
		if n := len(b); n > 0 && b[n-1] == '\n' {
			b = b[:n-1]
			if n > 1 && b[n-2] == '\r' {
				b = b[:n-2]
			}
		}
		return b, nil
	}
}

// readTrailer consumes what follows a chunked body's last chunk: CRLF, or
// trailer fields ended by an empty line within readBufferBytes. Like
// net/http, it discards the fields.
func (l *headReader) readTrailer() error {
	if peek, _ := l.br.Peek(2); string(peek) == "\r\n" {
		_, _ = l.br.Discard(2)
		return nil
	}
	// Peek one byte further at a time, so a sender waiting for its answer
	// is not waited on for bytes it will not send.
	for n := 4; ; n++ {
		if n > readBufferBytes {
			return errors.New("server: malformed or oversized trailer after chunked body")
		}
		peek, err := l.br.Peek(n)
		if bytes.HasSuffix(peek, []byte("\r\n\r\n")) {
			break
		}
		if err == io.EOF {
			return io.ErrUnexpectedEOF // the body is cut off, not ended
		} else if err != nil {
			return err
		}
	}
	// The fields are checked as net/http checks them, though only to be
	// dropped: a name of token bytes and spaces, a value without control
	// bytes, and a folded line continuing the field before it.
	for first := true; ; first = false {
		line, err := l.readLine()
		if err != nil {
			return err // the terminator is buffered: never a clean end
		}
		if len(line) == 0 {
			return nil
		}
		if line[0] == ' ' || line[0] == '\t' {
			if first || !validValue(line) {
				return errMalformedTrailer
			}
			continue
		}
		if _, _, _, ok := splitField(line); !ok {
			return errMalformedTrailer
		}
	}
}

var errMalformedTrailer = errors.New("server: malformed trailer field")

// splitField splits a header line into its name and its value, trimmed of
// blanks. ok is false for what neither a request nor an answer may hold: a
// folded line (which RFC 9112 lets a recipient refuse), no colon, an empty
// name, a name byte outside a token other than a space, or a control byte
// but tab in the value. space reports a space in the name: a request with
// one is refused, an answer's field with one is not a field net/http knows.
func splitField(line []byte) (k, v []byte, space, ok bool) {
	if line[0] == ' ' || line[0] == '\t' {
		return nil, nil, false, false
	}
	k, v, ok = bytes.Cut(line, []byte(":"))
	if !ok || len(k) == 0 {
		return nil, nil, false, false
	}
	for _, b := range k {
		if b == ' ' {
			space = true
		} else if !isTokenByte(b) {
			return nil, nil, false, false
		}
	}
	v = bytes.Trim(v, " \t")
	return k, v, space, validValue(v)
}

// framingFields gathers, as a head is read, the fields that frame its
// body. Requests and answers are framed by the same rules (length).
type framingFields struct {
	te, cl     int    // Transfer-Encoding and Content-Length fields seen
	chunked    bool   // the first Transfer-Encoding field is chunked
	clFirst    []byte // the first Content-Length value
	clDiffer   bool   // a later Content-Length differs from it
	badTrailer bool   // a Trailer field names a framing field
}

func (f *framingFields) reset() { *f = framingFields{clFirst: f.clFirst[:0]} }

func (f *framingFields) addTE(v []byte) {
	if f.te == 0 {
		f.chunked = asciiEqualFold("chunked", v)
	}
	f.te++
}

func (f *framingFields) addCL(v []byte) {
	if f.cl == 0 {
		f.clFirst = append(f.clFirst[:0], v...)
	} else if !bytes.Equal(v, f.clFirst) {
		f.clDiffer = true
	}
	f.cl++
}

func (f *framingFields) addTrailer(v []byte) {
	for len(v) > 0 {
		var k []byte
		k, v, _ = bytes.Cut(v, []byte(","))
		k = bytes.Trim(k, " \t")
		for _, framing := range [...]string{"Transfer-Encoding", "Trailer", "Content-Length"} {
			f.badTrailer = f.badTrailer || asciiEqualFold(framing, k)
		}
	}
}

// length applies the framing rules to the fields gathered: n is the
// Content-Length, -1 without one. A Transfer-Encoding other than one
// chunked is refused with 501; chunked beside a Content-Length, differing
// or malformed Content-Lengths, or a chunked body whose Trailer names a
// framing field, with 400: what could let one message smuggle another.
// HTTP/1.0 has no Transfer-Encoding; its field is ignored.
func (f *framingFields) length(http11 bool) (n int64, isChunked bool, bad int) {
	if f.te > 0 && http11 {
		if f.te != 1 || !f.chunked {
			return 0, false, http.StatusNotImplemented
		}
		if f.cl > 0 || f.badTrailer {
			return 0, false, http.StatusBadRequest
		}
		isChunked = true
	}
	if f.cl == 0 {
		return -1, isChunked, 0
	}
	cl, err := strconv.ParseUint(string(f.clFirst), 10, 63)
	if err != nil || f.clDiffer {
		return 0, false, http.StatusBadRequest
	}
	return int64(cl), isChunked, 0
}

// parseTarget sets r.URL and r.RequestURI from the request target,
// reusing the previous parse when the target repeats.
func (c *conn) parseTarget(r *http.Request, target []byte) bool {
	if r.Method == http.MethodConnect && (len(target) == 0 || target[0] != '/') {
		// CONNECT's authority form, parsed as net/http does and not kept.
		u, err := url.ParseRequestURI("http://" + string(target))
		if err != nil {
			return false
		}
		u.Scheme = ""
		c.url, c.target = *u, ""
		r.URL, r.RequestURI = &c.url, string(target)
		return true
	}
	if c.target == "" || string(target) != c.target {
		raw := string(target)
		u, err := url.ParseRequestURI(raw)
		if err != nil {
			return false
		}
		c.target, c.parsed = raw, *u
	}
	c.url = c.parsed
	r.URL, r.RequestURI = &c.url, c.target
	return true
}

// field returns header line i's canonical name and trimmed value, reusing
// the strings of the previous request's line i when they repeat, and
// records them as line i.
func (c *conn) field(i int, k, v []byte) (key, val string) {
	if i < len(c.keys) && asciiEqualFold(c.keys[i], k) {
		key = c.keys[i]
	} else {
		key = http.CanonicalHeaderKey(string(k))
	}
	if i < len(c.vals) && c.vals[i] == string(v) {
		val = c.vals[i]
	} else {
		val = string(v)
	}
	if i < len(c.keys) {
		c.keys[i], c.vals[i] = key, val
	} else {
		c.keys, c.vals = append(c.keys, key), append(c.vals, val)
	}
	return key, val
}

// chunked is r.TransferEncoding for a chunked body.
var chunked = []string{"chunked"}

// framing sets r's body from the framing fields read with its head,
// refusing what framingFields.length refuses.
func (c *conn) framing(r *http.Request) *badRequest {
	h := r.Header
	n, isChunked, bad := c.frame.length(r.ProtoAtLeast(1, 1))
	if bad != 0 {
		return &badRequest{code: bad}
	}
	delete(h, "Transfer-Encoding")
	if cl := h["Content-Length"]; len(cl) > 1 {
		h["Content-Length"] = cl[:1:1] // all equal, or length refused them
	}
	b := &c.body
	*b = body{c: c}
	r.ContentLength = max(n, 0)
	if isChunked {
		delete(h, "Trailer")
		r.ContentLength = -1
		r.TransferEncoding = chunked
		b.chunked = httputil.NewChunkedReader(c.br)
	}
	b.n = r.ContentLength
	if r.ContentLength == 0 {
		r.Body = http.NoBody
		return nil
	}
	b.cont = r.ProtoAtLeast(1, 1) && len(h["Expect"]) > 0 && hasToken(h["Expect"][0], "100-continue")
	r.Body = b
	return nil
}

// refuse answers a malformed request as net/http.Server does and closes.
func (c *conn) refuse(bad *badRequest) {
	if bad == nil {
		return
	}
	text := strconv.Itoa(bad.code) + " " + http.StatusText(bad.code)
	body := text
	switch {
	case bad.code == http.StatusNotImplemented:
		body = "Unsupported transfer encoding"
	case bad.msg != "":
		text += ": " + bad.msg
		body = text
	}
	_, _ = io.WriteString(c.rwc, "HTTP/1.1 "+text+"\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\n\r\n"+body)
	c.linger()
}

// linger half-closes c and reads what the client still sends, up to
// lingerTimeout, so the answer is not lost to a reset before the client
// has read it.
func (c *conn) linger() {
	cw, ok := c.rwc.(interface{ CloseWrite() error })
	if !ok || cw.CloseWrite() != nil {
		return
	}
	_ = c.rwc.SetReadDeadline(time.Now().Add(lingerTimeout))
	_, _ = io.Copy(io.Discard, c.rwc)
}

// watchLate runs on the timer's goroutine watchDelay after a handler
// started and watches the connection if the handler still runs.
func (c *conn) watchLate() {
	c.mu.Lock()
	c.late = true
	start := c.canWatch()
	c.mu.Unlock()
	if start {
		c.watch()
	}
}

// bodyEnd is called on the handler's goroutine when its body has been read
// to the end, and watches the connection if watchDelay has passed.
func (c *conn) bodyEnd() {
	c.mu.Lock()
	c.bodyDone = true
	start := c.canWatch()
	c.mu.Unlock()
	if start {
		go c.watch()
	}
}

// canWatch reports, with c.mu held, whether a watch read starts now, and
// marks it started. br is not read concurrently: its reader, the handler,
// is done with the body.
func (c *conn) canWatch() bool {
	if !c.handling || !c.late || !c.bodyDone || c.watching || c.br.Buffered() > 0 {
		return false
	}
	c.watching = true
	return true
}

// watch reads one byte off the raw connection while the handler runs. End
// of stream or an error means the client is gone and cancels the context;
// a byte (a pipelined request) is kept for br.
func (c *conn) watch() {
	n, err := c.rwc.Read(c.peek[:])
	c.mu.Lock()
	aborted := c.stopping
	c.mu.Unlock()
	var ne net.Error
	if err != nil && !(aborted && errors.As(err, &ne) && ne.Timeout()) {
		c.dead = true
		c.cancel()
	}
	c.peeked = n == 1
	c.watchDone <- struct{}{}
}

// stopWatch ends the watch once the handler has returned: the timer stops
// and a watch read in flight is aborted and waited for.
func (c *conn) stopWatch() {
	c.mu.Lock()
	c.handling = false
	watching := c.watching
	c.stopping = watching
	c.mu.Unlock()
	c.timer.Stop()
	if !watching {
		return
	}
	_ = c.rwc.SetReadDeadline(time.Unix(1, 0))
	<-c.watchDone
	_ = c.rwc.SetReadDeadline(time.Time{})
	c.mu.Lock()
	c.watching, c.stopping = false, false
	c.mu.Unlock()
}

// respond writes the handler's answer in one Write and reports whether the
// connection stays open.
func (c *conn) respond(r *http.Request) bool {
	w, b := &c.w, &c.body
	defer w.reset()
	if w.status == 0 {
		w.status = http.StatusOK
	}
	header := w.header
	closeAfter := r.Close || c.dead || c.set.closing.Load() || hasToken(header.Get("Connection"), "close")
	linger := false
	switch {
	case r.Body == http.NoBody:
	case b.cont && !b.done:
		// 100 Continue was never sent: what follows is not a request.
		closeAfter = true
	case !closeAfter && !b.done && !b.closed:
		// What the handler left unread is skipped, unless it is too much.
		if b.chunked == nil && b.n > postHandlerDiscard {
			closeAfter, linger = true, true
		} else if _, err := io.CopyN(io.Discard, b, postHandlerDiscard+1); err == nil {
			closeAfter, linger = true, true
		} else if err != io.EOF {
			closeAfter = true
		}
	case !b.done:
		closeAfter = true
	}

	is11 := r.ProtoAtLeast(1, 1)
	out := append(c.out[:0], "HTTP/1.0 "...)
	if is11 {
		out = append(out[:0], "HTTP/1.1 "...)
	}
	out = strconv.AppendInt(out, int64(w.status), 10)
	if text := http.StatusText(w.status); text != "" {
		out = append(append(out, ' '), text...)
	} else {
		out = append(append(out, " status code "...), strconv.Itoa(w.status)...)
	}
	out = append(out, "\r\n"...)

	bodyAllowed := w.status >= 200 && w.status != http.StatusNoContent && w.status != http.StatusNotModified
	keys := c.sortedKeys[:0]
	for k := range header {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	c.sortedKeys = keys
	for _, k := range keys {
		switch k {
		case "Connection", "Transfer-Encoding", "Content-Length":
			continue
		case "Content-Type":
			if w.status == http.StatusNotModified {
				continue
			}
		}
		if !validToken(k) {
			continue
		}
		for _, v := range header[k] {
			out = appendField(out, k, v)
		}
	}
	if _, typed := header["Content-Type"]; bodyAllowed && !typed && header.Get("Content-Encoding") == "" && len(w.body) > 0 {
		out = appendField(out, "Content-Type", http.DetectContentType(w.body))
	}
	switch {
	case closeAfter && is11:
		out = append(out, "Connection: close\r\n"...)
	case closeAfter:
	case header["Connection"] != nil:
		for _, v := range header["Connection"] {
			out = appendField(out, "Connection", v)
		}
	case !is11:
		// Not closing an HTTP/1.0 connection means the client asked to
		// keep it alive.
		out = append(out, "Connection: keep-alive\r\n"...)
	}
	if header["Date"] == nil {
		out = append(append(append(out, "Date: "...), c.httpDate()...), "\r\n"...)
	}
	isHead := r.Method == http.MethodHead
	switch {
	case !bodyAllowed:
	case isHead && header["Content-Length"] != nil:
		out = appendField(out, "Content-Length", header.Get("Content-Length"))
	case !isHead || len(w.body) > 0:
		out = strconv.AppendInt(append(out, "Content-Length: "...), int64(len(w.body)), 10)
		out = append(out, "\r\n"...)
	}
	out = append(out, "\r\n"...)
	if bodyAllowed && !isHead {
		out = append(out, w.body...)
	}
	_, err := c.rwc.Write(out)
	if cap(out) <= maxKeptBuffer {
		c.out = out
	} else {
		c.out = nil
	}
	if err != nil {
		return false
	}
	if closeAfter && linger {
		c.linger()
	}
	return !closeAfter
}

// appendField appends one header line, its value on one line with the
// surrounding blanks trimmed, as net/http's Header.Write does.
func appendField(out []byte, k, v string) []byte {
	out = append(append(out, k...), ": "...)
	start := len(out)
	for i := 0; i < len(v); i++ {
		if b := v[i]; b == '\r' || b == '\n' {
			out = append(out, ' ')
		} else {
			out = append(out, b)
		}
	}
	trimmed := bytes.Trim(out[start:], " \t")
	out = append(out[:start], trimmed...)
	return append(out, "\r\n"...)
}

// httpDate is the Date header value, formatted once a second.
func (c *conn) httpDate() []byte {
	now := time.Now()
	if sec := now.Unix(); sec != c.dateSec || c.date == nil {
		c.dateSec = sec
		c.date = now.UTC().AppendFormat(c.date[:0], http.TimeFormat)
	}
	return c.date
}

// response is the connection's buffered http.ResponseWriter.
type response struct {
	c      *conn
	header http.Header
	status int // 0 until WriteHeader or the first Write
	body   []byte
}

func (w *response) Header() http.Header { return w.header }

// WriteHeader records the status; later calls are ignored, as in net/http.
func (w *response) WriteHeader(code int) {
	if code < 100 || code > 999 {
		panic(fmt.Sprintf("invalid WriteHeader code %v", code))
	}
	if w.status == 0 {
		w.status = code
	}
}

// Write buffers p; the answer goes out when the handler returns.
func (w *response) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	if w.status < 200 || w.status == http.StatusNoContent || w.status == http.StatusNotModified {
		return 0, http.ErrBodyNotAllowed
	}
	w.body = append(w.body, p...)
	return len(p), nil
}

// reset readies w for the connection's next request.
func (w *response) reset() {
	clear(w.header)
	w.status = 0
	if cap(w.body) > maxKeptBuffer {
		w.body = nil
	}
	w.body = w.body[:0]
}

// body is the request body: Content-Length bytes or a chunked stream off
// the connection's reader.
type body struct {
	c       *conn
	n       int64     // bytes left of a Content-Length body
	chunked io.Reader // the chunked decoder, nil for Content-Length
	done    bool      // the end was reached
	closed  bool
	cont    bool // 100 Continue is owed before the first read
	err     error
}

func (b *body) Read(p []byte) (int, error) {
	switch {
	case b.closed:
		return 0, http.ErrBodyReadAfterClose
	case b.err != nil:
		return 0, b.err
	case b.done:
		return 0, io.EOF
	}
	if b.cont {
		b.cont = false
		_, _ = io.WriteString(b.c.rwc, "HTTP/1.1 100 Continue\r\n\r\n")
	}
	var n int
	var err error
	if b.chunked != nil {
		n, err = b.chunked.Read(p)
		if err == io.EOF {
			if terr := b.c.readTrailer(); terr != nil {
				err = terr
			}
		}
	} else {
		if int64(len(p)) > b.n {
			p = p[:b.n]
		}
		n, err = b.c.br.Read(p)
		b.n -= int64(n)
		if b.n == 0 {
			err = io.EOF
		} else if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
	}
	switch {
	case err == io.EOF:
		b.done = true
		b.c.bodyEnd()
		if n > 0 {
			err = nil
		}
	case err != nil:
		b.err = err
	}
	return n, err
}

// Close stops the handler's reads; what it left unread is skipped or
// closes the connection once the answer is written.
func (b *body) Close() error {
	b.closed = true
	return nil
}

// shouldClose reports whether the request asks for its connection to
// close after the answer: HTTP/1.0 without keep-alive, or Connection:
// close.
func shouldClose(r *http.Request) bool {
	conn := r.Header["Connection"]
	for _, v := range conn {
		if hasToken(v, "close") {
			return true
		}
	}
	if r.ProtoMinor == 0 {
		for _, v := range conn {
			if hasToken(v, "keep-alive") {
				return false
			}
		}
		return true
	}
	return false
}

// hasToken reports whether v holds token as a comma-, space- or
// tab-separated element, ASCII case-insensitively (net/http's rule).
func hasToken(v, token string) bool {
	for sp := 0; sp+len(token) <= len(v); sp++ {
		if sp > 0 && !isTokenBoundary(v[sp-1]) {
			continue
		}
		if end := sp + len(token); end != len(v) && !isTokenBoundary(v[end]) {
			continue
		}
		if asciiEqualFold(token, v[sp:sp+len(token)]) {
			return true
		}
	}
	return false
}

func isTokenBoundary(b byte) bool { return b == ' ' || b == ',' || b == '\t' }

// asciiEqualFold reports whether s and b are equal up to ASCII case.
func asciiEqualFold[T string | []byte](s string, b T) bool {
	if len(s) != len(b) {
		return false
	}
	for i := 0; i < len(s); i++ {
		x, y := s[i], b[i]
		if 'A' <= x && x <= 'Z' {
			x += 'a' - 'A'
		}
		if 'A' <= y && y <= 'Z' {
			y += 'a' - 'A'
		}
		if x != y {
			return false
		}
	}
	return true
}

// isTokenByte reports whether b may appear in an RFC 9110 token: a method
// or a header name.
func isTokenByte(b byte) bool {
	switch {
	case 'a' <= b && b <= 'z', 'A' <= b && b <= 'Z', '0' <= b && b <= '9':
		return true
	}
	switch b {
	case '!', '#', '$', '%', '&', '\'', '*', '+', '-', '.', '^', '_', '`', '|', '~':
		return true
	}
	return false
}

// validToken reports whether t is a non-empty token.
func validToken[T string | []byte](t T) bool {
	if len(t) == 0 {
		return false
	}
	for i := 0; i < len(t); i++ {
		if !isTokenByte(t[i]) {
			return false
		}
	}
	return true
}

// validValue reports whether v holds no control byte but tab.
func validValue(v []byte) bool {
	for _, b := range v {
		if (b < ' ' && b != '\t') || b == 0x7f {
			return false
		}
	}
	return true
}

// validHost reports whether h holds only bytes a host and port can hold,
// net/http's lenient check.
func validHost(h string) bool {
	for i := 0; i < len(h); i++ {
		b := h[i]
		switch {
		case 'a' <= b && b <= 'z', 'A' <= b && b <= 'Z', '0' <= b && b <= '9':
			continue
		}
		switch b {
		case '!', '$', '%', '&', '(', ')', '*', '+', ',', '-', '.', ':', ';', '=', '[', '\'', ']', '_', '~':
			continue
		}
		return false
	}
	return true
}

// internMethod returns the request method, a constant for the common ones.
func internMethod(m []byte) string {
	for _, known := range [...]string{http.MethodGet, http.MethodPost, http.MethodHead, http.MethodPut,
		http.MethodDelete, http.MethodOptions, http.MethodPatch, http.MethodConnect, http.MethodTrace} {
		if string(m) == known {
			return known
		}
	}
	return string(m)
}

// parseProto parses the HTTP version, a constant for the common ones.
func parseProto(p []byte) (proto string, major, minor int, ok bool) {
	switch string(p) {
	case "HTTP/1.1":
		return "HTTP/1.1", 1, 1, true
	case "HTTP/1.0":
		return "HTTP/1.0", 1, 0, true
	}
	proto = string(p)
	major, minor, ok = http.ParseHTTPVersion(proto)
	return proto, major, minor, ok
}
