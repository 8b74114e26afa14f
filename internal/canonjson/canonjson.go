// Package canonjson is the one set of scanners and appenders behind the
// service's hand-written JSON codecs: the feedback observation codec
// (internal/feedback), the submit bodies and the fixed-shape responses
// (internal/server) and the fleet router's routing keys (internal/fleet).
//
// Each codec covers only the canonical shape of its value — what
// json.Marshal writes and what clients send in practice — and hands
// everything else to encoding/json, so every accepted oddity and every
// error text stays encoding/json's. The scanners therefore take a strict
// subset of JSON: strings of ASCII without escapes or control bytes, and
// number literals; anything else is "not canonical" and the caller decodes
// the same bytes with encoding/json instead.
//
// The scanners take the input and an index and return the index after
// what they consumed plus any whitespace that follows, or -1 when the
// input is not canonical there. They accept -1 as the index, so calls
// chain and one check at the end suffices.
package canonjson

import (
	"math"
	"strconv"
)

// SkipSpace consumes JSON whitespace.
func SkipSpace(b []byte, i int) int {
	for i >= 0 && i < len(b) && IsSpace(b[i]) {
		i++
	}
	return i
}

// IsSpace reports whether c is JSON whitespace.
func IsSpace(c byte) bool { return c == ' ' || c == '\n' || c == '\t' || c == '\r' }

// SkipByte consumes whitespace, then c, then whitespace.
func SkipByte(b []byte, i int, c byte) int {
	if i = SkipSpace(b, i); i < 0 || i >= len(b) || b[i] != c {
		return -1
	}
	return SkipSpace(b, i+1)
}

// Str scans a string of ASCII without escapes or control bytes and
// returns its contents.
func Str(b []byte, i int) ([]byte, int) {
	if i < 0 || i >= len(b) || b[i] != '"' {
		return nil, -1
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return b[i+1 : j], SkipSpace(b, j+1)
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, -1
		}
	}
	return nil, -1
}

// Member scans `"key":` and returns the key.
func Member(b []byte, i int) ([]byte, int) {
	key, i := Str(b, i)
	return key, SkipByte(b, i, ':')
}

// Next scans what follows a member or an element: a comma (more is true)
// or the closing bracket.
func Next(b []byte, i int, closing byte) (j int, more bool) {
	if i < 0 || i >= len(b) {
		return -1, false
	}
	switch b[i] {
	case ',':
		return SkipSpace(b, i+1), true
	case closing:
		return SkipSpace(b, i+1), false
	}
	return -1, false
}

// Number scans a JSON number literal; integer reports one without
// fraction or exponent.
func Number(b []byte, i int) (lit []byte, integer bool, end int) {
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
	return b[i:j], integer, SkipSpace(b, j)
}

// Float scans a number literal as a float64; one out of float64's range
// is not canonical (encoding/json words that error).
func Float(b []byte, i int) (float64, int) {
	lit, _, i := Number(b, i)
	if i < 0 {
		return 0, -1
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return 0, -1
	}
	return f, i
}

// StringObject scans the whole of b as one JSON object, with whitespace
// around it, whose members are strings: each key one of keys, spelled
// exactly and at most once, each value a string Str takes. It sets vals[k]
// to key k's value, a slice of b, or to nil when the key is absent, and
// reports whether b is such an object. keys holds at most 32 names and
// vals is at least as long. An object encoding/json decodes into a struct
// whose fields are named keys is then decoded to the same values, whether
// or not it disallows unknown fields.
func StringObject(b []byte, keys []string, vals [][]byte) bool {
	clear(vals[:len(keys)])
	i := SkipByte(b, 0, '{')
	if i >= 0 && i < len(b) && b[i] == '}' {
		return SkipSpace(b, i+1) == len(b)
	}
	seen := uint32(0)
	for more := i >= 0; more; {
		key, j := Member(b, i)
		k := 0
		for k < len(keys) && keys[k] != string(key) {
			k++
		}
		if j < 0 || k == len(keys) || seen&(1<<k) != 0 {
			return false
		}
		seen |= 1 << k
		if vals[k], j = Str(b, j); j < 0 {
			return false
		}
		i, more = Next(b, j, '}')
	}
	return i == len(b)
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
// one float formatter of the hand-written encoders.
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
