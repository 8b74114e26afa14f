package canonjson

import (
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// refFloat is Float as it was before the one-pass reader: Number, then
// strconv.ParseFloat on the literal. Float is held to its value bits, its
// end index and its rejections.
func refFloat(b []byte, i int) (float64, int) {
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

// checkFloat fails unless Float and refFloat agree on b at i.
func checkFloat(t testing.TB, b []byte, i int) {
	t.Helper()
	got, gotEnd := Float(b, i)
	want, wantEnd := refFloat(b, i)
	if gotEnd != wantEnd || math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Float(%q, %d) = %v (%#x), end %d; reference %v (%#x), end %d",
			b, i, got, math.Float64bits(got), gotEnd, want, math.Float64bits(want), wantEnd)
	}
}

func TestSkipByte(t *testing.T) {
	for _, tc := range []struct {
		in   string
		i    int
		c    byte
		want int
	}{
		{":", 0, ':', 1},
		{" \t\r\n: \n x", 0, ':', 8},
		{"x:", 0, ':', -1},
		{"", 0, ':', -1},
		{"   ", 0, ':', -1},
		{":", -1, ':', -1},
		{"a:", 1, ':', 2},
		{"\v:", 0, ':', -1}, // vertical tab is not JSON whitespace
	} {
		if got := SkipByte([]byte(tc.in), tc.i, tc.c); got != tc.want {
			t.Errorf("SkipByte(%q, %d, %q) = %d, want %d", tc.in, tc.i, tc.c, got, tc.want)
		}
	}
}

func TestStr(t *testing.T) {
	for _, tc := range []struct {
		in   string
		i    int
		want string
		end  int
	}{
		{`"abc"`, 0, "abc", 5},
		{`"" `, 0, "", 3},
		{`x"a"`, 1, "a", 4},
		{`"a b~" ,`, 0, "a b~", 7},
		{`"a\"b"`, 0, "", -1},        // escape
		{"\"a\x01\"", 0, "", -1},     // control byte
		{"\"h\xc3\xa9\"", 0, "", -1}, // non-ASCII
		{`"abc`, 0, "", -1},          // unterminated
		{`abc"`, 0, "", -1},
		{`"a"`, -1, "", -1},
		{``, 0, "", -1},
	} {
		s, end := Str([]byte(tc.in), tc.i)
		if end != tc.end || string(s) != tc.want {
			t.Errorf("Str(%q, %d) = %q, %d; want %q, %d", tc.in, tc.i, s, end, tc.want, tc.end)
		}
	}
}

func TestMember(t *testing.T) {
	for _, tc := range []struct {
		in  string
		key string
		end int
	}{
		{`"k":1`, "k", 4},
		{`"key" :  true`, "key", 9},
		{`"k"1`, "k", -1},
		{`"k`, "", -1},
		{`k:1`, "", -1},
	} {
		k, end := Member([]byte(tc.in), 0)
		if end != tc.end || (end >= 0 && string(k) != tc.key) {
			t.Errorf("Member(%q) = %q, %d; want %q, %d", tc.in, k, end, tc.key, tc.end)
		}
	}
}

func TestNext(t *testing.T) {
	for _, tc := range []struct {
		in      string
		i       int
		closing byte
		end     int
		more    bool
	}{
		{", x", 0, '}', 2, true},
		{"}  ", 0, '}', 3, false},
		{"]", 0, '}', -1, false},
		{"] ,", 0, ']', 2, false},
		{"", 0, ']', -1, false},
		{",", -1, ']', -1, false},
		{" ,", 0, ']', -1, false}, // the caller has skipped the space
	} {
		end, more := Next([]byte(tc.in), tc.i, tc.closing)
		if end != tc.end || more != tc.more {
			t.Errorf("Next(%q, %d, %q) = %d, %v; want %d, %v", tc.in, tc.i, tc.closing, end, more, tc.end, tc.more)
		}
	}
}

func TestNumber(t *testing.T) {
	for _, tc := range []struct {
		in      string
		lit     string
		integer bool
		end     int
	}{
		{"0", "0", true, 1},
		{"-0", "-0", true, 2},
		{"123 ,", "123", true, 4},
		{"012", "0", true, 1}, // a leading zero ends the literal
		{"-12.50", "-12.50", false, 6},
		{"1e5", "1e5", false, 3},
		{"1E+05", "1E+05", false, 5},
		{"2.5e-3}", "2.5e-3", false, 6},
		{"-", "", false, -1},
		{"--1", "", false, -1},
		{"+1", "", false, -1},
		{".5", "", false, -1},
		{"1.", "", false, -1},
		{"1.e5", "", false, -1},
		{"1e", "", false, -1},
		{"1e+", "", false, -1},
		{"", "", false, -1},
		{"x", "", false, -1},
	} {
		lit, integer, end := Number([]byte(tc.in), 0)
		if end != tc.end || (end >= 0 && (string(lit) != tc.lit || integer != tc.integer)) {
			t.Errorf("Number(%q) = %q, %v, %d; want %q, %v, %d", tc.in, lit, integer, end, tc.lit, tc.integer, tc.end)
		}
	}
	if _, _, end := Number([]byte("1"), -1); end != -1 {
		t.Errorf("Number at index -1 = %d, want -1", end)
	}
}

func TestStringObject(t *testing.T) {
	keys := []string{"tenant", "query"}
	for _, tc := range []struct {
		in   string
		ok   bool
		vals [2]string // "-" for absent
	}{
		{`{"tenant":"a","query":"Q3"}`, true, [2]string{"a", "Q3"}},
		{` { "query" : "Q3" } `, true, [2]string{"-", "Q3"}},
		{`{}`, true, [2]string{"-", "-"}},
		{` {  } `, true, [2]string{"-", "-"}},
		{`{"query":"Q3","query":"Q2"}`, false, [2]string{}}, // repeated
		{`{"Query":"Q3"}`, false, [2]string{}},              // case differs
		{`{"other":"x"}`, false, [2]string{}},
		{`{"query":3}`, false, [2]string{}},
		{`{"query":"Q3",}`, false, [2]string{}},
		{`{"query":"Q3"} x`, false, [2]string{}},
		{`{"query":"a\"b"}`, false, [2]string{}},
		{`[]`, false, [2]string{}},
		{``, false, [2]string{}},
	} {
		vals := make([][]byte, 2)
		vals[0], vals[1] = []byte("stale"), []byte("stale")
		ok := StringObject([]byte(tc.in), keys, vals)
		if ok != tc.ok {
			t.Errorf("StringObject(%q) = %v, want %v", tc.in, ok, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		for k, want := range tc.vals {
			if want == "-" {
				if vals[k] != nil {
					t.Errorf("StringObject(%q): %s = %q, want absent", tc.in, keys[k], vals[k])
				}
			} else if string(vals[k]) != want {
				t.Errorf("StringObject(%q): %s = %q, want %q", tc.in, keys[k], vals[k], want)
			}
		}
		// What it accepts, encoding/json decodes to the same values.
		var v struct{ Tenant, Query *string }
		if err := json.Unmarshal([]byte(tc.in), &v); err != nil {
			t.Errorf("StringObject accepted %q, encoding/json: %v", tc.in, err)
		}
	}
}

func TestAppendFloat(t *testing.T) {
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.999999e-7, 1e-7, 1e20, 1e21, -1e21,
		123456789012345680000, 1e100, 1e-100, 5e-324, math.MaxFloat64, -math.MaxFloat64,
		0.30000000000000004, 1 << 53, 12345.678, 1.5e-10,
	} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendFloat(nil, f); string(got) != string(want) {
			t.Errorf("AppendFloat(%v) = %s, json.Marshal %s", f, got, want)
		}
		// And Float reads what it wrote back to the same bits.
		if got, end := Float(want, 0); end != len(want) || math.Float64bits(got) != math.Float64bits(f) {
			t.Errorf("Float(%s) = %v, %d; want %v, %d", want, got, end, f, len(want))
		}
	}
	// Integral doubles take the integer path below 1e15: each, its
	// negation and its neighbours one ulp either side, up to 2^53 and past
	// it, where the path ends.
	var integral []float64
	for _, f := range []float64{1, 2, 3, 7, 10, 64, 100, 1000, 12345, 1 << 31, 1 << 32, 1<<40 + 1, 123456789012,
		1e14, 1e15 - 1, 1e15, 1e15 + 1, 1e16, 1<<53 - 1, 1 << 53, 1<<53 + 2, 1 << 62, 1 << 63, 1e19, 1e20} {
		integral = append(integral, f, math.Nextafter(f, 0), math.Nextafter(f, math.Inf(1)))
	}
	for _, f := range integral {
		for _, v := range []float64{f, -f} {
			want, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			if got := AppendFloat(nil, v); string(got) != string(want) {
				t.Errorf("AppendFloat(%v) = %s, json.Marshal %s", v, got, want)
			}
		}
	}
	if got := AppendFloat(nil, math.Copysign(0, -1)); string(got) != "-0" {
		t.Errorf("AppendFloat(-0) = %s, want -0", got)
	}
}

// floatHardCases are literals at the edges of Float's one pass and of
// its table: signed zeros, leading zeros, the first integer float64
// cannot hold, mantissas at and past 19 digits, halfway points, the
// exponents on either side of the table's range, and runs of digits
// around the eight-digit step: seven, eight, nine, eight twice and a
// third cut short at the 19th digit, leading fraction zeros before a
// chunk, and a chunk broken by the bytes either side of '0'-'9'.
var floatHardCases = []string{
	"0", "-0", "0.0", "-0.0", "0e0", "-0e-400", "0e99999999999999999999", "0.000000000000000000000000000",
	"012", "-012", "00", "0.00001", "0.000001", "0.0000001", "000.5",
	"9007199254740993", "9007199254740992", "9007199254740991", "-9007199254740993",
	"9007199254740993.0", "90071992547409930e-1",
	"1234567890123456789", "12345678901234567890", "1234567890123456789.5", "12345678901234567891",
	"9999999999999999999", "99999999999999999999", "18446744073709551615", "18446744073709551616",
	"10000000000000000000", "100000000000000000000", "100000000000000000000000", "123456789012345680000",
	"0.1234567890123456789", "0.12345678901234567891", "0.12345678901234567890000",
	"1.00000000000000011102230246251565404236316680908203125",  // halfway above 1
	"1.0000000000000001110223024625156540423631668090820312",   // just below halfway
	"1.000000000000000111022302462515654042363166809082031251", // just above halfway
	"9007199254740993e0", "4503599627370497.5", "2.2250738585072011e-308", "2.2250738585072012e-308",
	"1e-32", "1e-33", "1e32", "1e33", "9999999999999999999e32", "9999999999999999999e-32",
	"1e-31", "1e31", "1234567890123456789e-51", "1234567890123456789e-50", "1e-22", "1e22", "1e23",
	"1e308", "1.7976931348623157e308", "1.7976931348623159e308", "1e309", "-1e309", "1e-324", "5e-324",
	"2.5e-3", "1E+05", "1e0005", "1e-0005", "-12.50", "123 ", "1.5\n\t ,", "7.", "-", "", ".5", "1e",
	"1e+", "+1", "--1", "1.e5", "x", "0x10", "1_000", "Infinity", "NaN", "1e99999999999999999999",
	"1234567", "12345678", "123456789", "1234567812345678", "123456781234567812", "1234567812345678123",
	"12345678123456781234", "12345678123456781230", "1234567812345678.5", "12345678.87654321",
	"0.12345678", "0.1234567", "0.00000000123456789", "0.0000000012345678901234567", "0.00000000000000001",
	"12345678.1234567812345678", "1.12345678123456781", "1.123456781234567812", "99999999.99999999e-5",
	"1234/678", "1234:678", "1234\xb5678", "0.1234/678", "0.1234:678", "12345678e8", "0.00000000",
	"9999.9999999999999999", "99999999999.99999999", "999999999999.99999999", "0.99999999999999999999",
	"0.00000000999999999999999999999", "0.0000000999999999999999999999", "-99999999999999999999.5",
}

func TestFloatHardCases(t *testing.T) {
	for _, s := range floatHardCases {
		checkFloat(t, []byte(s), 0)
		checkFloat(t, []byte(`{"x":`+s+`}`), 5)
	}
	checkFloat(t, []byte("1"), -1)
	checkFloat(t, []byte("1"), 1)
}

// TestFloatSweep holds Float to the reference on 1 M deterministic random
// doubles, each in AppendFloat's form and in fixed 'f' and 'e'
// precisions: magnitudes drawn log-uniformly across the table's range and
// beyond it, and arbitrary bit patterns.
func TestFloatSweep(t *testing.T) {
	n := 1 << 20
	if testing.Short() {
		n = 1 << 16
	}
	rng := rand.New(rand.NewSource(1))
	var buf []byte
	for k := 0; k < n; k++ {
		var f float64
		switch k % 4 {
		case 0: // arbitrary bits: mostly far outside the table
			if f = math.Float64frombits(rng.Uint64()); math.IsNaN(f) || math.IsInf(f, 0) {
				continue
			}
		case 1: // 'f' form's decades and a little past them
			f = math.Pow(10, rng.Float64()*32-9)
		case 2: // what clients write: short decimals
			f = float64(rng.Int63n(1e7)) / math.Pow(10, float64(rng.Intn(8)))
		default: // the whole table, and every eighth an integer
			f = rng.Float64() * math.Pow(10, float64(rng.Intn(70)-35))
			if k%8 == 3 {
				f = math.Trunc(f)
			}
		}
		if rng.Intn(2) == 0 {
			f = -f
		}
		buf = AppendFloat(buf[:0], f)
		if k%4 == 3 {
			if want, _ := json.Marshal(f); string(buf) != string(want) {
				t.Fatalf("AppendFloat(%v) = %s, json.Marshal %s", f, buf, want)
			}
		}
		checkFloat(t, buf, 0)
		if got, _ := Float(buf, 0); math.Float64bits(got) != math.Float64bits(f) {
			t.Fatalf("Float(%s) = %v, want %v", buf, got, f)
		}
		buf = strconv.AppendFloat(buf[:0], f, 'f', k%12, 64)
		checkFloat(t, buf, 0)
		buf = strconv.AppendFloat(buf[:0], f, 'e', k%20, 64)
		checkFloat(t, buf, 0)
	}
}

// TestPow10Table checks the table's edges against 10^e as float64: the
// high word, rounded to 53 bits, is the float's mantissa for every e the
// table holds that float64 represents exactly (0..22), and the exponents
// either side of the range fall back.
func TestPow10Table(t *testing.T) {
	for e := 0; e <= 22; e++ {
		hi := pow10Table[e-pow10Min][1]
		if hi>>63 != 1 {
			t.Fatalf("10^%d: high word %#x not normalized", e, hi)
		}
		mant := math.Float64bits(math.Pow10(e))&(1<<52-1) | 1<<52
		if got := hi >> 11; got != mant {
			t.Errorf("10^%d: high word %#x, float64 mantissa %#x", e, hi, mant)
		}
	}
	for _, e := range []int{pow10Min - 1, pow10Max + 1} {
		if _, ok := eiselLemire(1, e, false); ok {
			t.Errorf("eiselLemire(1, %d) answered outside the table", e)
		}
	}
	for _, e := range []int{pow10Min, pow10Max} {
		if f, ok := eiselLemire(1, e, false); !ok || f != math.Pow10(e) {
			t.Errorf("eiselLemire(1, %d) = %v, %v; want %v", e, f, ok, math.Pow10(e))
		}
	}
}

// FuzzFloat holds Float to the reference on arbitrary bytes, read from
// their start and from behind a member key.
func FuzzFloat(f *testing.F) {
	for _, s := range floatHardCases {
		f.Add([]byte(s))
	}
	f.Add([]byte(`12.345678901234567,"observedSeconds":40}`))
	f.Add([]byte(strings.Repeat("9", 40) + ".5e-3"))
	f.Fuzz(func(t *testing.T, b []byte) {
		checkFloat(t, b, 0)
		checkFloat(t, append([]byte(`{"x":`), b...), 5)
	})
}

// BenchmarkFloat reads the literals a feedback batch carries, one pass
// against the reference.
func BenchmarkFloat(b *testing.B) {
	lits := [][]byte{[]byte("12.345678901234567"), []byte("0.0012345"), []byte("40"), []byte("1234.5678")}
	for _, c := range []struct {
		name string
		read func([]byte, int) (float64, int)
	}{{"onepass", Float}, {"reference", refFloat}} {
		b.Run(c.name, func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				for _, l := range lits {
					if _, end := c.read(l, 0); end != len(l) {
						b.Fatal("literal not read")
					}
				}
			}
		})
	}
}
