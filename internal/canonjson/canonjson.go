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
// chain and one check at the end suffices. A codec that knows which key
// json.Marshal writes next compares that literal first and scans with
// Member only on a mismatch (internal/feedback does). Float reads a
// literal in one pass, a fraction eight digits a step where they fit.
package canonjson

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
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
// is not canonical (encoding/json words that error). Its value, its end
// index and its rejections are those of Number followed by
// strconv.ParseFloat.
//
// It reads the literal in one pass, folding up to 19 significant digits
// into a mantissa and counting the decimal exponent. The fraction's digits
// go eight a step through eightDigits while eight more fit, one at a time
// after; the integer part's go one at a time, as it is one to three digits
// in the service's bodies, where a failed eight-byte check costs more than
// the step saves. It converts the two with the Eisel–Lemire algorithm
// (Lemire, "Number Parsing at a Gigabyte per Second", arXiv:2101.11408;
// strconv implements the same) over pow10Table. A literal it cannot settle
// that way — a non-zero digit past the 19th, an exponent outside the
// table, a halfway case — goes to Number and strconv.ParseFloat.
func Float(b []byte, i int) (float64, int) {
	if i < 0 {
		return 0, -1
	}
	j, neg := i, false
	if j < len(b) && b[j] == '-' {
		j, neg = j+1, true
	}
	// The literal is man·10^exp, man holding nd significant digits.
	var man uint64
	nd, exp := 0, 0
	if j < len(b) && b[j] == '0' {
		j++
	} else {
		k := j
		for ; j < len(b) && b[j] >= '0' && b[j] <= '9'; j++ {
			switch {
			case nd < 19:
				man, nd = man*10+uint64(b[j]-'0'), nd+1
			case b[j] != '0':
				return parseFloat(b, i)
			default:
				exp++
			}
		}
		if j == k {
			return 0, -1
		}
	}
	if j < len(b) && b[j] == '.' {
		j++
		k := j
		for ; nd <= 19-8; j += 8 {
			v, ok := eightDigits(b, j)
			if !ok {
				break
			}
			if man == 0 {
				// Leading zeros are not significant: v's own digits are.
				for d := v; d != 0; d /= 10 {
					nd++
				}
			} else {
				nd += 8
			}
			man, exp = man*1e8+v, exp-8
		}
		for ; j < len(b) && b[j] >= '0' && b[j] <= '9'; j++ {
			switch {
			case nd < 19:
				// A leading zero leaves man 0 and is not significant.
				if man = man*10 + uint64(b[j]-'0'); man != 0 {
					nd++
				}
				exp--
			case b[j] != '0':
				return parseFloat(b, i)
			}
		}
		if j == k {
			return 0, -1
		}
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		j++
		eneg := false
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			eneg = b[j] == '-'
			j++
		}
		k, e := j, 0
		for ; j < len(b) && b[j] >= '0' && b[j] <= '9'; j++ {
			if e < 10000 { // far outside the table either way
				e = e*10 + int(b[j]-'0')
			}
		}
		if j == k {
			return 0, -1
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	if f, ok := eiselLemire(man, exp, neg); ok {
		return f, SkipSpace(b, j)
	}
	return parseFloat(b, i)
}

// eightDigits reads b[j:j+8] as eight decimal digits in one step (SWAR:
// the eight bytes as one little-endian word, checked and folded in
// parallel; Lemire, arXiv:2101.11408 §6). ok is false when fewer than
// eight bytes are left or one of them is not a digit.
func eightDigits(b []byte, j int) (v uint64, ok bool) {
	if len(b)-j < 8 {
		return 0, false
	}
	w := binary.LittleEndian.Uint64(b[j:])
	// A byte below '0' sets its top bit in w-0x30…, one above '9' in
	// w+0x46….
	if ((w+0x4646464646464646)|(w-0x3030303030303030))&0x8080808080808080 != 0 {
		return 0, false
	}
	w -= 0x3030303030303030
	w = w*10 + w>>8 // byte pairs: each even byte holds a two-digit value
	w = ((w&0x000000FF000000FF)*(100+1000000<<32) + (w>>16&0x000000FF000000FF)*(1+10000<<32)) >> 32
	return uint64(uint32(w)), true
}

// parseFloat is Float's general path: Number, then strconv.ParseFloat.
func parseFloat(b []byte, i int) (float64, int) {
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

// The exponents pow10Table covers: every literal AppendFloat writes in
// 'f' form (1e-6 <= |f| < 1e21, at most 17 significant digits) is a
// mantissa of at most 19 digits times 10^e with -22 <= e <= 2, and the
// range leaves room for hand-written literals around it.
const (
	pow10Min = -32
	pow10Max = 32
)

// pow10Table holds 10^e for e in [pow10Min, pow10Max] as a normalized
// 128-bit mantissa {low, high} (the top bit of high set), truncated: what
// Eisel–Lemire multiplies by.
var pow10Table = func() (t [pow10Max - pow10Min + 1][2]uint64) {
	for e := pow10Min; e <= pow10Max; e++ {
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(e, -e))), nil)
		if e < 0 {
			// 2^k / 10^-e with k large enough that the quotient has at
			// least 128 bits.
			p.Quo(new(big.Int).Lsh(big.NewInt(1), uint(128+p.BitLen())), p)
		}
		if n := p.BitLen(); n > 128 {
			p.Rsh(p, uint(n-128))
		} else {
			p.Lsh(p, uint(128-n))
		}
		words := new(big.Int).Rsh(p, 64)
		t[e-pow10Min] = [2]uint64{p.Uint64(), words.Uint64()}
	}
	return t
}()

// eiselLemire returns man·10^exp10, negated when neg, correctly rounded,
// or ok false when it cannot tell: exp10 outside the table, or a product
// too close to a halfway point between two float64s.
func eiselLemire(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	if man == 0 {
		if neg {
			f = math.Copysign(0, -1)
		}
		return f, true
	}
	if exp10 < pow10Min || exp10 > pow10Max {
		return 0, false
	}
	pow := &pow10Table[exp10-pow10Min]

	// Normalize the mantissa and estimate the binary exponent:
	// 217706/2^16 is log2(10) to within the table's range.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	retExp2 := uint64(217706*exp10>>16+64+1023) - uint64(clz)

	// The 64x128-bit product's top 128 bits; the low half of the power is
	// needed only when the high half leaves the rounding bits open.
	xHi, xLo := bits.Mul64(man, pow[1])
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow[0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Shift to 54 bits, then round to 53, refusing an exact halfway case.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2++
	}
	// Subnormal, infinite or NaN: not at the table's exponents, but the
	// general path answers it if the table ever grows.
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	retBits := retExp2<<52 | retMantissa&(1<<52-1)
	if neg {
		retBits |= 1 << 63
	}
	return math.Float64frombits(retBits), true
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
// one float formatter of the hand-written encoders. An integral value
// below 1e15 in magnitude — a container size, a zero wait — is its integer
// digits, which strconv.AppendInt writes without the shortest-digits
// search; −0 keeps its sign through the general path.
func AppendFloat(b []byte, f float64) []byte {
	if i := int64(f); float64(i) == f && i > -1e15 && i < 1e15 && (i != 0 || !math.Signbit(f)) {
		return strconv.AppendInt(b, i, 10)
	}
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
