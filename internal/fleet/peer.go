package fleet

import (
	"context"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"syscall"
	"time"

	"raqo/internal/server"
)

// maxIdlePerPeer caps the keep-alive connections pooled per peer.
const maxIdlePerPeer = 8

// relayed holds the answer fields forward relays, by the relay* indexes
// into relayNames.
type relayed [3]string

const (
	relayContentType = iota
	relayRetryAfter
	relayNode
)

var relayNames = []string{"Content-Type", "Retry-After", servedByHeader}

// peerConn is one keep-alive connection, owned by one call at a time.
type peerConn struct {
	net.Conn
	raw syscall.RawConn      // nil without a descriptor: reuse goes unchecked
	lr  io.LimitedReader     // the connection, cut off at the call's byte bound
	br  *server.AnswerReader // over lr
	buf []byte               // request bytes, reused across calls
	// cancel fails the I/O in flight: the call's context is done.
	cancel func()
	// quiet's read(2), its byte and its error, made once per connection.
	readOne func(fd uintptr) bool
	one     [1]byte
	oneErr  error
}

// transport carries every node-to-node call: HTTP/1.1 over pooled
// connections, synchronous on the caller's goroutine, no I/O under mu.
type transport struct {
	self string   // sent as the hop header
	m    *Metrics // PeerDials, PeerIdle

	mu   sync.Mutex
	idle map[string][]*peerConn // guarded by mu — per-peer stacks, newest last
}

// do sends one request to peer and returns the complete answer: its
// status, the fields forward relays and its body. The whole call — dial,
// write, read — ends by timeout, or as soon as ctx is cancelled. A body
// over limit bytes is an error, never a truncation. The request is re-sent
// only when a pooled connection took none of its bytes, so the transport
// never applies a POST twice.
func (p *transport) do(ctx context.Context, timeout time.Duration, peer, method, uri string, body []byte, limit int64) (int, relayed, []byte, error) {
	deadline := time.Now().Add(timeout)
	var relay relayed
	for {
		pc, reused, err := p.take(ctx, peer, deadline)
		if err != nil {
			return 0, relay, nil, err
		}
		// Cancellation moves the deadline into the past, failing the I/O
		// in flight. stop reports false once that has begun: it may then
		// hit the connection at any later time, so that one is not pooled.
		if pc.cancel == nil {
			pc.cancel = func() { _ = pc.SetDeadline(time.Unix(1, 0)) }
		}
		stop := context.AfterFunc(ctx, pc.cancel)

		b := append(pc.buf[:0], method...)
		b = append(append(b, ' '), uri...)
		b = append(append(b, " HTTP/1.1\r\nHost: "...), peer...)
		b = append(append(b, "\r\n"+hopHeader+": "...), p.self...)
		if body != nil {
			b = append(b, "\r\nContent-Type: application/json\r\nContent-Length: "...)
			b = strconv.AppendInt(b, int64(len(body)), 10)
		}
		pc.buf = append(append(b, "\r\n\r\n"...), body...)
		if n, err := pc.Write(pc.buf); err != nil {
			stop()
			_ = pc.Close()
			if n == 0 && reused && ctx.Err() == nil {
				continue
			}
			return 0, relay, nil, fmt.Errorf("fleet: write to %s: %w", peer, err)
		}

		// Status line, headers and chunk framing get what a request body
		// may take on top of limit: nothing is read without end.
		pc.lr.N = limit + server.MaxBodyBytes
		ans, err := pc.br.ReadAnswer(relayNames, relay[:], limit)
		// Reuse needs the exact end of a complete keep-alive answer.
		if !stop() || err != nil || !ans.KeepAlive || pc.br.Buffered() != 0 || !p.put(peer, pc) {
			_ = pc.Close()
		}
		if err != nil {
			return 0, relay, nil, fmt.Errorf("fleet: answer from %s: %w", peer, err)
		}
		return ans.Status, relay, ans.Body, nil
	}
}

// take returns a connection to peer with the call's deadline set: the
// newest idle one that is still quiet, else a new one. The check keeps a
// peer restarted on its old address from being marked down by stale ones.
func (p *transport) take(ctx context.Context, peer string, deadline time.Time) (pc *peerConn, reused bool, err error) {
	for {
		p.mu.Lock()
		stack := p.idle[peer]
		if len(stack) == 0 {
			p.mu.Unlock()
			break
		}
		pc = stack[len(stack)-1]
		p.idle[peer] = stack[:len(stack)-1]
		p.mu.Unlock()
		p.m.PeerIdle.Dec()
		if pc.SetDeadline(deadline) == nil && pc.quiet() {
			return pc, true, nil
		}
		_ = pc.Close()
	}
	p.m.PeerDials.Inc()
	c, err := (&net.Dialer{Deadline: deadline}).DialContext(ctx, "tcp", peer)
	if err != nil {
		return nil, false, err
	}
	_ = c.SetDeadline(deadline) // fails only on a closed connection, as the write then does
	pc = &peerConn{Conn: c, lr: io.LimitedReader{R: c}}
	pc.br = server.NewAnswerReader(&pc.lr)
	if sc, ok := c.(syscall.Conn); ok {
		pc.raw, _ = sc.SyscallConn() // nil on error: see raw
	}
	return pc, false, nil
}

// put pools a connection for reuse unless peer's stack is full.
func (p *transport) put(peer string, pc *peerConn) (pooled bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if pooled = len(p.idle[peer]) < maxIdlePerPeer; pooled {
		p.idle[peer] = append(p.idle[peer], pc)
		p.m.PeerIdle.Inc()
	}
	return pooled
}

// closeIdle closes every pooled connection.
func (p *transport) closeIdle() {
	p.mu.Lock()
	idle := p.idle
	p.idle = make(map[string][]*peerConn, len(idle))
	p.mu.Unlock()
	//raqolint:ignore maprange closing every connection comes to the same in any order
	for _, stack := range idle {
		for _, pc := range stack {
			p.m.PeerIdle.Dec()
			_ = pc.Close()
		}
	}
}
