package fleet

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"raqo/internal/server"
)

// answerVerdict is what the transport makes of one peer answer: whether it
// takes it and, if so, what it relays and whether the connection is
// pooled for another call.
type answerVerdict struct {
	ok       bool
	status   int
	relay    relayed
	body     string
	poolable bool // keep-alive, and not a byte after the answer
	err      error
}

// answerSource returns raw under the transport's read bound for a body
// bound of limit (status line, headers and framing get MaxBodyBytes more),
// and raw's reader, whose Len is what is left unread.
func answerSource(raw []byte, limit int64) (*io.LimitedReader, *bytes.Reader) {
	src := bytes.NewReader(raw)
	return &io.LimitedReader{R: src, N: limit + server.MaxBodyBytes}, src
}

// readAnswerLoop reads raw as the transport does: the connection loop's
// answer reader under the transport's bounds.
func readAnswerLoop(raw []byte, limit int64) answerVerdict {
	lr, src := answerSource(raw, limit)
	a := server.NewAnswerReader(lr)
	var v answerVerdict
	ans, err := a.ReadAnswer(relayNames, v.relay[:], limit)
	if err != nil {
		return answerVerdict{err: err}
	}
	v.ok, v.status, v.body = true, ans.Status, string(ans.Body)
	v.poolable = ans.KeepAlive && a.Buffered()+src.Len() == 0
	return v
}

// readAnswerNetHTTP reads raw as the transport did before the answer
// reader: http.ReadResponse, an interim status refused, the body read to
// its end under the same bounds.
func readAnswerNetHTTP(raw []byte, limit int64) answerVerdict {
	lr, src := answerSource(raw, limit)
	br := bufio.NewReader(lr)
	resp, err := http.ReadResponse(br, nil)
	if err == nil && resp.StatusCode < 200 {
		err = fmt.Errorf("unsolicited HTTP %d", resp.StatusCode)
	}
	var body []byte
	if err == nil {
		body, err = io.ReadAll(io.LimitReader(resp.Body, limit+1))
	}
	if err == nil && int64(len(body)) > limit {
		err = fmt.Errorf("body over %d bytes", limit)
	}
	if err != nil {
		return answerVerdict{err: err}
	}
	v := answerVerdict{ok: true, status: resp.StatusCode, body: string(body)}
	for i, name := range relayNames {
		v.relay[i] = resp.Header.Get(name)
	}
	v.poolable = !resp.Close && br.Buffered()+src.Len() == 0
	return v
}

func (v answerVerdict) String() string {
	if !v.ok {
		return fmt.Sprintf("refused (%v)", v.err)
	}
	return fmt.Sprintf("HTTP %d %q relay=%q poolable=%v", v.status, v.body, v.relay, v.poolable)
}

// same reports whether two verdicts agree on everything the transport
// acts on; the refusals' errors may differ.
func (v answerVerdict) same(w answerVerdict) bool {
	if !v.ok || !w.ok {
		return v.ok == w.ok
	}
	return v.status == w.status && v.relay == w.relay && v.body == w.body && v.poolable == w.poolable
}

// TestPeerAnswerMatchesNetHTTP feeds raw answers to the transport's answer
// reader and to http.ReadResponse as the transport used it, and requires
// the same verdict: taken or refused and, if taken, the same status,
// relayed fields, body and reuse. The answers are every one of
// peerFaults() and the cases below; where the reader refuses what net/http
// takes, the case names the refusal and both verdicts are pinned.
func TestPeerAnswerMatchesNetHTTP(t *testing.T) {
	type answerCase struct {
		name string
		raw  string
		// refused marks a deliberate difference: the reader refuses an
		// answer net/http takes, as the connection loop refuses the
		// request it resembles.
		refused bool
	}
	var cases []answerCase
	for _, tc := range peerFaults() {
		for i, st := range tc.steps {
			cases = append(cases, answerCase{name: fmt.Sprintf("%s/step %d", tc.name, i), raw: st.answer})
		}
	}
	const ok = "HTTP/1.1 200 OK\r\n"
	pad := "X-Pad: " + strings.Repeat("p", 8<<10) + "\r\n"
	cases = append(cases, []answerCase{
		{name: "relayed fields, any case, first of repeats",
			raw: ok + "content-type: text/x-a\r\nCONTENT-TYPE: text/x-b\r\nretry-after: 3\r\nx-raqo-fleet-node: n:1\r\nContent-Length: 2\r\n\r\nhi"},
		{name: "relayed fields trimmed, empty kept as empty", raw: ok + "Content-Type: \t a/b \t\r\nRetry-After:\r\nContent-Length: 0\r\n\r\n"},
		{name: "a space before the colon: no field net/http reads", raw: ok + "Content-Length : 5\r\nContent-Type : x\r\n\r\nhello"},
		{name: "status without a reason", raw: "HTTP/1.1 200\r\nContent-Length: 1\r\n\r\nx"},
		{name: "status with extra spaces", raw: "HTTP/1.1   201   Created\r\nContent-Length: 1\r\n\r\nx"},
		{name: "status of two digits", raw: "HTTP/1.1 20 OK\r\nContent-Length: 1\r\n\r\nx"},
		{name: "status of four digits", raw: "HTTP/1.1 2000 OK\r\nContent-Length: 1\r\n\r\nx"},
		{name: "status with a sign", raw: "HTTP/1.1 +20 OK\r\nContent-Length: 1\r\n\r\nx"},
		{name: "LF line ends", raw: "HTTP/1.1 200 OK\nContent-Length: 1\n\nx"},
		{name: "obs-text in a value", raw: ok + "Content-Type: caf\xe9\r\nContent-Length: 1\r\n\r\nx"},
		{name: "control byte in a value", raw: ok + "Content-Type: a\x01b\r\nContent-Length: 1\r\n\r\nx"},
		{name: "no colon", raw: ok + "Content-Type\r\nContent-Length: 1\r\n\r\nx"},
		{name: "empty field name", raw: ok + ": x\r\nContent-Length: 1\r\n\r\nx"},
		{name: "head cut off", raw: ok + "Content-Length: 1\r\n"},
		{name: "duplicate Content-Length", raw: ok + "Content-Length: 2\r\nContent-Length: 2\r\n\r\nhi"},
		{name: "differing Content-Length", raw: ok + "Content-Length: 2\r\nContent-Length: 3\r\n\r\nhi!"},
		{name: "malformed Content-Length", raw: ok + "Content-Length: 0x2\r\n\r\nhi"},
		{name: "empty Content-Length", raw: ok + "Content-Length:\r\n\r\nhi"},
		{name: "Content-Length over the bound", raw: ok + "Content-Length: 9223372036854775807\r\n\r\nhi"},
		{name: "Content-Length past int64", raw: ok + "Content-Length: 9223372036854775808\r\n\r\nhi"},
		{name: "Transfer-Encoding: gzip", raw: ok + "Transfer-Encoding: gzip\r\nContent-Length: 2\r\n\r\nhi"},
		{name: "two Transfer-Encoding fields", raw: ok + "Transfer-Encoding: chunked\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n"},
		{name: "Transfer-Encoding: CHUNKED", raw: ok + "Transfer-Encoding:  CHUNKED \r\n\r\n2\r\nhi\r\n0\r\n\r\n"},
		{name: "chunked with a trailer", raw: ok + "Transfer-Encoding: chunked\r\nTrailer: X-Sum\r\n\r\n3\r\nabc\r\n0\r\nX-Sum: 1\r\n\r\n"},
		{name: "Trailer naming Content-Length", raw: ok + "Transfer-Encoding: chunked\r\nTrailer: X-Sum, content-length\r\n\r\n0\r\n\r\n"},
		{name: "Trailer naming Content-Length, not chunked", raw: ok + "Trailer: Content-Length\r\nContent-Length: 2\r\n\r\nhi"},
		{name: "trailer field name with a space", raw: ok + "Transfer-Encoding: chunked\r\n\r\n0\r\nX Sum: 1\r\n\r\n"},
		{name: "folded trailer line", raw: ok + "Transfer-Encoding: chunked\r\n\r\n0\r\nX-Sum: 1\r\n 2\r\n\r\n"},
		{name: "trailer opening with a folded line", raw: ok + "Transfer-Encoding: chunked\r\n\r\n0\r\n X-Sum: 1\r\n\r\n"},
		{name: "malformed trailer field", raw: ok + "Transfer-Encoding: chunked\r\n\r\n0\r\nX-Sum\r\n\r\n"},
		{name: "malformed chunk size", raw: ok + "Transfer-Encoding: chunked\r\n\r\nzz\r\nhi\r\n0\r\n\r\n"},
		{name: "HTTP/1.0 with no length", raw: "HTTP/1.0 200 OK\r\nContent-Type: a/b\r\n\r\nto the end"},
		{name: "HTTP/1.0 keep-alive with a length", raw: "HTTP/1.0 200 OK\r\nConnection: keep-alive\r\nContent-Length: 2\r\n\r\nhi"},
		{name: "HTTP/1.0 without keep-alive", raw: "HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nhi"},
		{name: "HTTP/1.0 with another Connection element", raw: "HTTP/1.0 200 OK\r\nConnection: keep-alive-not\r\nContent-Length: 2\r\n\r\nhi"},
		{name: "HTTP/1.0 ignores Transfer-Encoding", raw: "HTTP/1.0 200 OK\r\nTransfer-Encoding: gzip\r\n\r\n2\r\nhi\r\n0\r\n\r\n"},
		{name: "HTTP/1.1 with no length", raw: ok + "\r\nto the end"},
		{name: "Connection elements", raw: ok + "Connection: keep-alive, Close\r\nContent-Length: 2\r\n\r\nhi"},
		{name: "Connection element inside a word", raw: ok + "Connection: closed, not-close\r\nContent-Length: 2\r\n\r\nhi"},
		{name: "204", raw: "HTTP/1.1 204 No Content\r\nX-Raqo-Fleet-Node: n:1\r\n\r\n"},
		{name: "204 with a Content-Length", raw: "HTTP/1.1 204 No Content\r\nContent-Length: 5\r\n\r\n"},
		{name: "204 with body bytes after it", raw: "HTTP/1.1 204 No Content\r\n\r\nstray"},
		{name: "304", raw: "HTTP/1.1 304 Not Modified\r\nContent-Type: a/b\r\n\r\n"},
		{name: "a 1xx", raw: "HTTP/1.1 103 Early Hints\r\nLink: </x>\r\n\r\n" + okAnswer("a")},
		{name: "empty answer", raw: ""},
		{name: "malformed version", raw: "HTTP/x.y 200 OK\r\nContent-Length: 1\r\n\r\nx"},
		{name: "long header line", raw: ok + pad + "Content-Length: 2\r\n\r\nhi"},

		{name: "folded header line", raw: ok + "X-Raqo-Fleet-Node: n\r\n :1\r\nContent-Length: 2\r\n\r\nhi", refused: true},
		{name: "chunked beside Content-Length", raw: ok + "Content-Length: 2\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nhi\r\n0\r\n\r\n", refused: true},
		{name: "header block past the 1 MB bound", raw: ok + strings.Repeat(pad, 130) + "Content-Length: 2\r\n\r\nhi", refused: true},
		{name: "HTTP/2.0 status line", raw: "HTTP/2.0 200 OK\r\nContent-Length: 2\r\n\r\nhi", refused: true},
	}...)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, ref := readAnswerLoop([]byte(tc.raw), maxRespBytes), readAnswerNetHTTP([]byte(tc.raw), maxRespBytes)
			if tc.refused {
				if got.ok || !ref.ok {
					t.Fatalf("want the reader to refuse what net/http takes:\nreader   %v\nnet/http %v", got, ref)
				}
				return
			}
			if !got.same(ref) {
				t.Errorf("\nreader   %v\nnet/http %v", got, ref)
			}
		})
	}
}

// FuzzPeerAnswer feeds arbitrary bytes to the answer reader and to
// http.ReadResponse as the transport used it. Whatever they are: no panic,
// no body over the bound, nothing taken that net/http refuses, and the
// same status and body, relayed fields and reuse wherever both take it.
func FuzzPeerAnswer(f *testing.F) {
	for _, tc := range peerFaults() {
		for _, st := range tc.steps {
			if len(st.answer) < 1<<10 {
				f.Add([]byte(st.answer))
			}
		}
	}
	f.Add([]byte("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nTrailer: X-Sum\r\n\r\n3\r\nabc\r\n0\r\nX-Sum: 1\r\n\r\n"))
	f.Add([]byte("HTTP/1.0 200 OK\r\nConnection: keep-alive\r\nContent-Length: 2\r\n\r\nhi"))
	f.Add([]byte("HTTP/1.1 204 No Content\r\nContent-Length: 5\r\n\r\n"))
	const limit = 64
	f.Fuzz(func(t *testing.T, raw []byte) {
		got, ref := readAnswerLoop(raw, limit), readAnswerNetHTTP(raw, limit)
		switch {
		case got.ok && len(got.body) > limit:
			t.Fatalf("answer %q: took %d body bytes, bound %d", raw, len(got.body), limit)
		case got.ok && !ref.ok:
			t.Fatalf("answer %q: took HTTP %d where net/http refuses: %v", raw, got.status, ref.err)
		case got.ok && !got.same(ref):
			t.Fatalf("answer %q:\nreader   %v\nnet/http %v", raw, got, ref)
		}
	})
}
