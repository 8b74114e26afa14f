package feedback

import (
	"bytes"
	"strconv"

	"raqo/internal/canonjson"
	"raqo/internal/plan"
	"raqo/internal/units"
)

// This file is the one JSON decoder for Observation, shared by the wire
// (POST /v1/feedback) and journal replay. It covers the canonical shape
// only — what json.Marshal writes and what clients send in practice — and
// hands everything else to encoding/json, so every accepted oddity and
// every error text stays encoding/json's: objects whose keys are the exact
// field names, each at most once, in any order, with whitespace anywhere
// JSON allows it (the key json.Marshal writes next is compared first, in
// one step); strings of ASCII with no escapes; JSON number literals (an
// integer literal for observedAt); a non-empty operators array. null, an
// empty array, an unknown, repeated or differently-cased key, an escape or
// a number out of range is "not canonical": the decoder reports it and the
// caller decodes the same bytes with encoding/json instead.
//
// The scanners are internal/canonjson's, shared with the server's submit
// codec.
//
// The journal line of an observation that arrived in the canonical shape
// is the span of the request it was decoded from (DecodeBatch's lines):
// the decoder reads it back to the same observation, and for what
// json.Marshal wrote it is byte for byte json.Marshal's line, which the
// journal writes for every other observation.

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
	key, i := canonjson.Member(body, canonjson.SkipByte(body, 0, '{'))
	if string(key) != "observations" {
		return nil, nil, false
	}
	i = canonjson.SkipByte(body, i, '[')
	var d decoder
	obs, lines = obs[:0], lines[:0]
	for more := i >= 0; more; {
		obs = append(obs, Observation{})
		start := i
		if i = d.observation(body, i, &obs[len(obs)-1]); i < 0 {
			return nil, nil, false
		}
		lines = append(lines, journalLine(body[start:i], &obs[len(obs)-1]))
		i, more = canonjson.Next(body, i, ']')
	}
	if i = canonjson.SkipByte(body, i, '}'); i != len(body) {
		return nil, nil, false
	}
	return obs, lines, true
}

// journalLine returns span, the bytes o was decoded from, as o's journal
// line, or nil when they cannot stand for o on a line of their own.
func journalLine(span []byte, o *Observation) []byte {
	end := len(span)
	for end > 0 && canonjson.IsSpace(span[end-1]) {
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
	i := d.observation(b, canonjson.SkipSpace(b, 0), o)
	return i >= 0 && canonjson.SkipSpace(b, i) == len(b)
}

// The members of an observation and of an operator sample, numbered in
// the order json.Marshal writes them; a member's number is also its bit
// in the decoder's seen mask, which declines a repeated key.
const (
	obsSignature = iota
	obsEngine
	obsPredictedSeconds
	obsObservedSeconds
	obsPredictedDollars
	obsObservedDollars
	obsObservedAt
	obsOperators
)

const (
	opAlgo = iota
	opSSGB
	opCSGB
	opNC
	opPredictedSeconds
	opObservedSeconds
)

// obsKeys and opKeys are the members' keys, indexed by number, each as it
// leads its member in json.Marshal's output: quoted, then the colon.
var (
	obsKeys = []string{`"signature":`, `"engine":`, `"predictedSeconds":`, `"observedSeconds":`,
		`"predictedDollars":`, `"observedDollars":`, `"observedAt":`, `"operators":`}
	opKeys = []string{`"algo":`, `"ssGB":`, `"csGB":`, `"nc":`, `"predictedSeconds":`, `"observedSeconds":`}
)

// member scans the key of the member at b[i] and returns its number in
// keys, len(keys) for a key that is none of them, and the index past the
// colon and any whitespace. It first compares keys[next], the key
// json.Marshal writes next, in one step; any other spelling — another
// key, whitespace before the colon — is scanned by canonjson.Member and
// looked up, so the result is the same in any key order and spacing.
func member(b []byte, i int, keys []string, next int) (int, int) {
	if next < len(keys) && i >= 0 {
		if k := keys[next]; len(b)-i >= len(k) && string(b[i:i+len(k)]) == k {
			return next, canonjson.SkipSpace(b, i+len(k))
		}
	}
	key, i := canonjson.Member(b, i)
	n := 0
	for n < len(keys) && keys[n][1:len(keys[n])-2] != string(key) {
		n++
	}
	return n, i
}

// observation decodes one observation object at b[i] into *o.
func (d *decoder) observation(b []byte, i int, o *Observation) int {
	if i = canonjson.SkipByte(b, i, '{'); i < 0 {
		return -1
	}
	*o = Observation{}
	if i < len(b) && b[i] == '}' {
		return canonjson.SkipSpace(b, i+1)
	}
	seen := 0
	for n, more := -1, true; more; {
		var s []byte
		var f float64
		switch n, i = member(b, i, obsKeys, n+1); n {
		case obsSignature:
			s, i = canonjson.Str(b, i)
			o.Signature = string(s)
		case obsEngine:
			if s, i = canonjson.Str(b, i); string(s) != d.engine {
				d.engine = string(s)
			}
			o.Engine = d.engine
		case obsPredictedSeconds:
			o.PredictedSeconds, i = canonjson.Float(b, i)
		case obsObservedSeconds:
			o.ObservedSeconds, i = canonjson.Float(b, i)
		case obsPredictedDollars:
			f, i = canonjson.Float(b, i)
			o.PredictedDollars = units.USD(f)
		case obsObservedDollars:
			f, i = canonjson.Float(b, i)
			o.ObservedDollars = units.USD(f)
		case obsObservedAt:
			var integer bool
			if s, integer, i = canonjson.Number(b, i); i >= 0 {
				var err error
				if o.ObservedAt, err = strconv.ParseInt(string(s), 10, 64); err != nil || !integer {
					return -1
				}
			}
		case obsOperators:
			o.Operators, i = d.operators(b, i)
		default:
			return -1
		}
		if i < 0 || seen&(1<<n) != 0 {
			return -1
		}
		seen |= 1 << n
		i, more = canonjson.Next(b, i, '}')
	}
	return i
}

// operators decodes a non-empty array of operator samples at b[i] into
// the slab and returns the slice holding them, capped so that appending
// to it cannot reach a neighbour's samples.
func (d *decoder) operators(b []byte, i int) ([]OperatorSample, int) {
	i = canonjson.SkipByte(b, i, '[')
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
		i, more = canonjson.Next(b, i, ']')
	}
	if i < 0 {
		d.slab = nil // the tail holds a half-decoded sample; chunks are never rewritten
		return nil, -1
	}
	return d.slab[start:len(d.slab):len(d.slab)], i
}

// operator decodes one operator sample object at b[i] into the zero *s.
func operator(b []byte, i int, s *OperatorSample) int {
	if i = canonjson.SkipByte(b, i, '{'); i < 0 {
		return -1
	}
	if i < len(b) && b[i] == '}' {
		return canonjson.SkipSpace(b, i+1)
	}
	seen := 0
	for n, more := -1, true; more; {
		switch n, i = member(b, i, opKeys, n+1); n {
		case opAlgo:
			var name []byte
			name, i = canonjson.Str(b, i)
			s.Algo = algoName(name)
		case opSSGB:
			s.SSGB, i = canonjson.Float(b, i)
		case opCSGB:
			s.CSGB, i = canonjson.Float(b, i)
		case opNC:
			s.NC, i = canonjson.Float(b, i)
		case opPredictedSeconds:
			s.PredictedSeconds, i = canonjson.Float(b, i)
		case opObservedSeconds:
			s.ObservedSeconds, i = canonjson.Float(b, i)
		default:
			return -1
		}
		if i < 0 || seen&(1<<n) != 0 {
			return -1
		}
		seen |= 1 << n
		i, more = canonjson.Next(b, i, '}')
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
