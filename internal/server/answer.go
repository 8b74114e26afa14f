package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httputil"
)

// The answer reader: the fleet's peer transport reads an owner's answer to
// a forwarded request with the connection loop's head reader, header-field
// checks and body framing, and keeps only what the hop relays: the status,
// a few named fields, the body and whether the connection can carry
// another answer. Where it refuses what net/http's ReadResponse takes — a
// folded field line, chunked beside a Content-Length, a head past
// maxHeaderBytes, a version other than HTTP/1.x — it refuses what the
// connection loop refuses in a request (TestPeerAnswerMatchesNetHTTP names
// each case).

// AnswerReader reads HTTP/1.1 answers to GET and POST requests off one
// connection, one after another.
type AnswerReader struct {
	headReader
	kept []string // the previous answer's kept values, reused when they repeat
}

// NewAnswerReader returns a reader of the answers r carries.
func NewAnswerReader(r io.Reader) *AnswerReader {
	return &AnswerReader{headReader: headReader{br: bufio.NewReaderSize(r, readBufferBytes)}}
}

// Buffered returns the number of bytes read past the last answer. A
// connection with any is not fit for another request: they answer none.
func (a *AnswerReader) Buffered() int { return a.br.Buffered() }

// Answer is what ReadAnswer keeps of one answer.
type Answer struct {
	Status int
	Body   []byte
	// KeepAlive reports that the answer leaves its connection open for
	// another: it did not ask to close it, and its end is known.
	KeepAlive bool
}

var (
	errAnswerStatus  = errors.New("malformed status line")
	errAnswerField   = errors.New("malformed header field")
	errAnswerFraming = errors.New("malformed or unsupported body framing")
)

// ReadAnswer reads the next answer, its body at most limit bytes. For
// each canonical name in names (at most 64, none of them a framing field
// or Connection) it sets vals[i] to the field's first value, "" if the
// answer has none. An answer whose status is under 200 is an
// error: nothing sent a request it would be the interim answer to.
func (a *AnswerReader) ReadAnswer(names, vals []string, limit int64) (Answer, error) {
	a.start()
	line, err := a.readLine()
	if err != nil {
		return Answer{}, eofIsUnexpected(err)
	}
	// net/http's status line: version, one space, three digits, then
	// anything.
	proto, status, ok := bytes.Cut(line, []byte(" "))
	code, _, _ := bytes.Cut(bytes.TrimLeft(status, " "), []byte(" "))
	if !ok || len(code) != 3 {
		return Answer{}, errAnswerStatus
	}
	st := 0
	for _, b := range code {
		if b < '0' || b > '9' {
			return Answer{}, errAnswerStatus
		}
		st = 10*st + int(b-'0')
	}
	_, major, minor, ok := parseProto(proto)
	switch {
	case !ok || major != 1:
		return Answer{}, errAnswerStatus
	case st < 200:
		return Answer{}, fmt.Errorf("unsolicited HTTP %d", st)
	}

	if len(a.kept) != len(names) {
		a.kept = make([]string, len(names))
	}
	clear(vals)
	var seen uint64 // bit i: names[i] was found
	hasClose, keepAlive := false, false
	for {
		line, err := a.readLine()
		if err != nil {
			return Answer{}, eofIsUnexpected(err)
		}
		if len(line) == 0 {
			break
		}
		k, v, space, ok := splitField(line)
		switch {
		case !ok:
			return Answer{}, errAnswerField
		case space:
			// net/http keeps the field under its name as sent, which is
			// none of the names read here.
		case asciiEqualFold("Content-Length", k):
			a.frame.addCL(v)
		case asciiEqualFold("Transfer-Encoding", k):
			a.frame.addTE(v)
		case asciiEqualFold("Trailer", k):
			a.frame.addTrailer(v)
		case asciiEqualFold("Connection", k):
			hasClose = hasClose || hasElement(v, "close")
			keepAlive = keepAlive || hasElement(v, "keep-alive")
		default:
			for i, name := range names {
				if seen&(1<<i) == 0 && asciiEqualFold(name, k) {
					seen |= 1 << i
					if string(v) != a.kept[i] {
						a.kept[i] = string(v)
					}
					vals[i] = a.kept[i]
				}
			}
		}
	}

	n, isChunked, bad := a.frame.length(minor >= 1)
	if bad != 0 {
		return Answer{}, errAnswerFraming
	}
	ans := Answer{Status: st, KeepAlive: !hasClose && (minor >= 1 || keepAlive)}
	switch {
	case st == http.StatusNoContent || st == http.StatusNotModified:
		// No body, whatever the framing says.
	case isChunked:
		ans.Body, err = readBounded(httputil.NewChunkedReader(a.br), limit)
		if err == nil {
			err = a.readTrailer()
		}
	case n > limit:
		err = fmt.Errorf("body over %d bytes", limit)
	case n >= 0:
		ans.Body = make([]byte, n)
		_, err = io.ReadFull(a.br, ans.Body)
	default:
		// No length: the body ends with the connection.
		ans.KeepAlive = false
		ans.Body, err = readBounded(a.br, limit)
	}
	if err != nil {
		return Answer{}, eofIsUnexpected(err)
	}
	return ans, nil
}

// readBounded reads r to its end, an error past limit bytes. Only the
// bodies the server never sends, chunked or ended by the connection, get
// here.
func readBounded(r io.Reader, limit int64) ([]byte, error) {
	b, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err == nil && int64(len(b)) > limit {
		err = fmt.Errorf("body over %d bytes", limit)
	}
	return b, err
}

func eofIsUnexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// hasElement reports whether the comma-separated list v holds token, up
// to blanks and ASCII case: net/http's reading of an answer's Connection
// field.
func hasElement(v []byte, token string) bool {
	for len(v) > 0 {
		var e []byte
		e, v, _ = bytes.Cut(v, []byte(","))
		if asciiEqualFold(token, bytes.Trim(e, " \t")) {
			return true
		}
	}
	return false
}
