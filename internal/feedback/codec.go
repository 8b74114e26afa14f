package feedback

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"

	"raqo/internal/plan"
	"raqo/internal/units"
)

// This file is the one JSON codec for Observation, shared by the wire
// (POST /v1/feedback), the journal writer and journal replay. It covers
// the canonical shape only — what json.Marshal writes and what clients
// send in practice — and hands everything else to encoding/json, so every
// accepted oddity and every error text stays encoding/json's:
//
//   - encoding: strings of printable ASCII without `"`, `\`, `<`, `>`, `&`
//     and finite floats; anything else goes through json.Marshal.
//   - decoding: objects whose keys are the exact field names, each at most
//     once, in any order, with whitespace anywhere JSON allows it; strings
//     of ASCII with no escapes; JSON number literals (an integer literal
//     for observedAt); a non-empty operators array. null, an empty array,
//     an unknown, repeated or differently-cased key, an escape or a number
//     out of range is "not canonical": the decoder reports it and the
//     caller decodes the same bytes with encoding/json instead.
//
// The journal line of an observation that arrived in the canonical shape
// is the span of the request it was decoded from (DecodeBatch's lines):
// the codec decodes it back to the same observation, and for what
// json.Marshal wrote it is byte for byte what AppendJSON would write.

// AppendJSON appends the JSON encoding of o to dst: the bytes, or the
// error, of json.Marshal(o).
func AppendJSON(dst []byte, o *Observation) ([]byte, error) {
	if !canonical(o) {
		b, err := json.Marshal(*o) // a copy: o must not escape on the fast path
		if err != nil {
			return dst, err
		}
		return append(dst, b...), nil
	}
	dst = append(dst, `{"signature":"`...)
	dst = append(dst, o.Signature...)
	dst = append(dst, `","engine":"`...)
	dst = append(dst, o.Engine...)
	dst = append(dst, `","predictedSeconds":`...)
	dst = AppendFloat(dst, o.PredictedSeconds)
	dst = append(dst, `,"observedSeconds":`...)
	dst = AppendFloat(dst, o.ObservedSeconds)
	dst = append(dst, `,"predictedDollars":`...)
	dst = AppendFloat(dst, float64(o.PredictedDollars))
	dst = append(dst, `,"observedDollars":`...)
	dst = AppendFloat(dst, float64(o.ObservedDollars))
	if o.ObservedAt != 0 {
		dst = append(dst, `,"observedAt":`...)
		dst = strconv.AppendInt(dst, o.ObservedAt, 10)
	}
	if len(o.Operators) > 0 {
		dst = append(dst, `,"operators":[`...)
		for i := range o.Operators {
			s := &o.Operators[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"algo":"`...)
			dst = append(dst, s.Algo...)
			dst = append(dst, `","ssGB":`...)
			dst = AppendFloat(dst, s.SSGB)
			dst = append(dst, `,"csGB":`...)
			dst = AppendFloat(dst, s.CSGB)
			dst = append(dst, `,"nc":`...)
			dst = AppendFloat(dst, s.NC)
			dst = append(dst, `,"predictedSeconds":`...)
			dst = AppendFloat(dst, s.PredictedSeconds)
			dst = append(dst, `,"observedSeconds":`...)
			dst = AppendFloat(dst, s.ObservedSeconds)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}

// canonical reports whether AppendJSON can write o itself.
func canonical(o *Observation) bool {
	ok := PlainString(o.Signature) && PlainString(o.Engine) &&
		Finite(o.PredictedSeconds) && Finite(o.ObservedSeconds) &&
		Finite(float64(o.PredictedDollars)) && Finite(float64(o.ObservedDollars))
	for i := range o.Operators {
		s := &o.Operators[i]
		ok = ok && PlainString(s.Algo) && Finite(s.SSGB) && Finite(s.CSGB) && Finite(s.NC) &&
			Finite(s.PredictedSeconds) && Finite(s.ObservedSeconds)
	}
	return ok
}

// PlainString reports whether json.Marshal writes s as it stands between
// two quotes (HTML escaping on or off).
func PlainString(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// Finite reports whether f is neither infinite nor NaN: whether
// encoding/json encodes it.
func Finite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

// AppendFloat formats a finite float64 the way encoding/json does: the
// shortest representation that round-trips, exponent form below 1e-6 and
// from 1e21, with a two-digit exponent's leading zero dropped. It is the
// one float formatter of the hand-written encoders, here and in the server.
func AppendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && (b[n-3] == '-' || b[n-3] == '+') && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// DecodeBatch decodes the canonical form of a POST /v1/feedback body,
// {"observations":[...]} with at least one canonical observation, into
// obs[:0], and into lines[:0] each observation's journal line: the span of
// body it was decoded from, surrounding whitespace trimmed. A line is nil
// when the span holds a line break, or when observedAt is absent or 0 (the
// server stamps such an observation, so its wire bytes no longer are it).
// ok is false for any other body; nothing is then known about it and the
// caller decodes it with encoding/json. The observations share no memory
// with body; the lines are slices of it.
func DecodeBatch(body []byte, obs []Observation, lines [][]byte) (outObs []Observation, outLines [][]byte, ok bool) {
	key, i := member(body, skipByte(body, 0, '{'))
	if string(key) != "observations" {
		return nil, nil, false
	}
	i = skipByte(body, i, '[')
	var d decoder
	obs, lines = obs[:0], lines[:0]
	for more := i >= 0; more; {
		obs = append(obs, Observation{})
		start := i
		if i = d.observation(body, i, &obs[len(obs)-1]); i < 0 {
			return nil, nil, false
		}
		lines = append(lines, journalLine(body[start:i], &obs[len(obs)-1]))
		i, more = next(body, i, ']')
	}
	if i = skipByte(body, i, '}'); i != len(body) {
		return nil, nil, false
	}
	return obs, lines, true
}

// journalLine returns span, the bytes o was decoded from, as o's journal
// line, or nil when they cannot stand for o on a line of their own.
func journalLine(span []byte, o *Observation) []byte {
	end := len(span)
	for end > 0 && isSpace(span[end-1]) {
		end--
	}
	span = span[:end]
	if o.ObservedAt == 0 || bytes.IndexByte(span, '\n') >= 0 || bytes.IndexByte(span, '\r') >= 0 {
		return nil
	}
	return span
}

// decoder carries what decoding a run of observations shares: the slab
// their operator samples are cut from and the engine name most of them
// repeat. The zero value is ready to use.
type decoder struct {
	slab   []OperatorSample // cut into Observation.Operators, never rewritten
	engine string
}

// line decodes a journal line holding exactly one canonical observation.
func (d *decoder) line(b []byte, o *Observation) bool {
	i := d.observation(b, skipSpace(b, 0), o)
	return i >= 0 && skipSpace(b, i) == len(b)
}

// The scanners below take the input and an index and return the index
// after what they consumed plus any whitespace that follows, or -1 when
// the input is not canonical there. They accept -1 as the index, so calls
// chain and one check at the end suffices.

func skipSpace(b []byte, i int) int {
	for i >= 0 && i < len(b) && isSpace(b[i]) {
		i++
	}
	return i
}

func isSpace(c byte) bool { return c == ' ' || c == '\n' || c == '\t' || c == '\r' }

// skipByte consumes whitespace, then c, then whitespace.
func skipByte(b []byte, i int, c byte) int {
	if i = skipSpace(b, i); i < 0 || i >= len(b) || b[i] != c {
		return -1
	}
	return skipSpace(b, i+1)
}

// str scans a string of ASCII without escapes and returns its contents.
func str(b []byte, i int) ([]byte, int) {
	if i < 0 || i >= len(b) || b[i] != '"' {
		return nil, -1
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return b[i+1 : j], skipSpace(b, j+1)
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, -1
		}
	}
	return nil, -1
}

// member scans `"key":` and returns the key.
func member(b []byte, i int) ([]byte, int) {
	key, i := str(b, i)
	return key, skipByte(b, i, ':')
}

// next scans what follows a member or an element: a comma (more is true)
// or the closing bracket.
func next(b []byte, i int, closing byte) (j int, more bool) {
	if i < 0 || i >= len(b) {
		return -1, false
	}
	switch b[i] {
	case ',':
		return skipSpace(b, i+1), true
	case closing:
		return skipSpace(b, i+1), false
	}
	return -1, false
}

// number scans a JSON number literal; integer reports one without
// fraction or exponent.
func number(b []byte, i int) (lit []byte, integer bool, end int) {
	if i < 0 {
		return nil, false, -1
	}
	j := i
	if j < len(b) && b[j] == '-' {
		j++
	}
	if j < len(b) && b[j] == '0' {
		j++
	} else {
		k := j
		for j < len(b) && b[j] >= '0' && b[j] <= '9' {
			j++
		}
		if j == k {
			return nil, false, -1
		}
	}
	integer = true
	if j < len(b) && b[j] == '.' {
		j++
		k := j
		for j < len(b) && b[j] >= '0' && b[j] <= '9' {
			j++
		}
		if integer = false; j == k {
			return nil, false, -1
		}
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		j++
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		k := j
		for j < len(b) && b[j] >= '0' && b[j] <= '9' {
			j++
		}
		if integer = false; j == k {
			return nil, false, -1
		}
	}
	return b[i:j], integer, skipSpace(b, j)
}

func float(b []byte, i int) (float64, int) {
	lit, _, i := number(b, i)
	if i < 0 {
		return 0, -1
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil { // out of range: encoding/json words the error
		return 0, -1
	}
	return f, i
}

// Bits of the seen masks: one per key, to decline a repeated key.
const (
	seenSignature = 1 << iota
	seenEngine
	seenPredictedSeconds
	seenObservedSeconds
	seenPredictedDollars
	seenObservedDollars
	seenObservedAt
	seenOperators

	seenAlgo = 1 << iota
	seenSSGB
	seenCSGB
	seenNC
)

// observation decodes one observation object at b[i] into *o.
func (d *decoder) observation(b []byte, i int, o *Observation) int {
	if i = skipByte(b, i, '{'); i < 0 {
		return -1
	}
	*o = Observation{}
	if i < len(b) && b[i] == '}' {
		return skipSpace(b, i+1)
	}
	seen := 0
	for more := true; more; {
		var key, s []byte
		var bit int
		var f float64
		switch key, i = member(b, i); string(key) {
		case "signature":
			bit = seenSignature
			s, i = str(b, i)
			o.Signature = string(s)
		case "engine":
			bit = seenEngine
			if s, i = str(b, i); string(s) != d.engine {
				d.engine = string(s)
			}
			o.Engine = d.engine
		case "predictedSeconds":
			bit = seenPredictedSeconds
			o.PredictedSeconds, i = float(b, i)
		case "observedSeconds":
			bit = seenObservedSeconds
			o.ObservedSeconds, i = float(b, i)
		case "predictedDollars":
			bit = seenPredictedDollars
			f, i = float(b, i)
			o.PredictedDollars = units.USD(f)
		case "observedDollars":
			bit = seenObservedDollars
			f, i = float(b, i)
			o.ObservedDollars = units.USD(f)
		case "observedAt":
			bit = seenObservedAt
			var integer bool
			if s, integer, i = number(b, i); i >= 0 {
				var err error
				if o.ObservedAt, err = strconv.ParseInt(string(s), 10, 64); err != nil || !integer {
					return -1
				}
			}
		case "operators":
			bit = seenOperators
			o.Operators, i = d.operators(b, i)
		default:
			return -1
		}
		if i < 0 || seen&bit != 0 {
			return -1
		}
		seen |= bit
		i, more = next(b, i, '}')
	}
	return i
}

// operators decodes a non-empty array of operator samples at b[i] into
// the slab and returns the slice holding them, capped so that appending
// to it cannot reach a neighbour's samples.
func (d *decoder) operators(b []byte, i int) ([]OperatorSample, int) {
	i = skipByte(b, i, '[')
	start := len(d.slab)
	for more := i >= 0; more; {
		if len(d.slab) == cap(d.slab) {
			// A fresh chunk, with this observation's samples so far moved
			// over: earlier observations keep the chunk they point into.
			n := len(d.slab) - start
			grown := make([]OperatorSample, n, max(16, 2*n, min(2*cap(d.slab), 1024)))
			copy(grown, d.slab[start:])
			d.slab, start = grown, 0
		}
		d.slab = d.slab[:len(d.slab)+1]
		if i = operator(b, i, &d.slab[len(d.slab)-1]); i < 0 {
			break
		}
		i, more = next(b, i, ']')
	}
	if i < 0 {
		d.slab = nil // the tail holds a half-decoded sample; chunks are never rewritten
		return nil, -1
	}
	return d.slab[start:len(d.slab):len(d.slab)], i
}

// operator decodes one operator sample object at b[i] into the zero *s.
func operator(b []byte, i int, s *OperatorSample) int {
	if i = skipByte(b, i, '{'); i < 0 {
		return -1
	}
	if i < len(b) && b[i] == '}' {
		return skipSpace(b, i+1)
	}
	seen := 0
	for more := true; more; {
		var key []byte
		var bit int
		switch key, i = member(b, i); string(key) {
		case "algo":
			bit = seenAlgo
			key, i = str(b, i)
			s.Algo = algoName(key)
		case "ssGB":
			bit = seenSSGB
			s.SSGB, i = float(b, i)
		case "csGB":
			bit = seenCSGB
			s.CSGB, i = float(b, i)
		case "nc":
			bit = seenNC
			s.NC, i = float(b, i)
		case "predictedSeconds":
			bit = seenPredictedSeconds
			s.PredictedSeconds, i = float(b, i)
		case "observedSeconds":
			bit = seenObservedSeconds
			s.ObservedSeconds, i = float(b, i)
		default:
			return -1
		}
		if i < 0 || seen&bit != 0 {
			return -1
		}
		seen |= bit
		i, more = next(b, i, '}')
	}
	return i
}

// algoName returns name as a string, without allocating for the names of
// the known join algorithms.
func algoName(name []byte) string {
	for _, a := range plan.Algos {
		if known := a.String(); known == string(name) {
			return known
		}
	}
	return string(name)
}
