package feedback

import (
	"bytes"
	"encoding/json"
	"math"
	"math/bits"
	"reflect"
	"testing"

	"raqo/internal/units"
)

// codecLines is the grammar table of the canonical decoder: journal lines
// (equally, elements of a /v1/feedback batch) and whether the codec takes
// them itself. encoding/json is the reference either way.
var codecLines = []struct {
	name      string
	line      string
	canonical bool
}{
	{"bench shape", `{"signature":"bench-12","engine":"hive","predictedSeconds":173.40871843930694,"observedSeconds":215.64410862899327,"predictedDollars":0,"observedDollars":0,"observedAt":1700000625,"operators":[{"algo":"SMJ","ssGB":5.326530436353463,"csGB":7,"nc":84,"predictedSeconds":130.29375737632265,"observedSeconds":152.26723285321554},{"algo":"BHJ","ssGB":0.7421431358608848,"csGB":2,"nc":31,"predictedSeconds":43.11496106298428,"observedSeconds":63.37687577577773}]}`, true},
	{"smoke_feedback shape", `{"signature":"smoke-3","engine":"hive","predictedSeconds":30,"observedSeconds":120,"operators":[{"algo":"SMJ","ssGB":3,"csGB":5,"nc":7,"predictedSeconds":30,"observedSeconds":120}]}`, true},
	{"smoke_history shape", `{"signature":"smoke-0","engine":"hive","predictedSeconds":10,"observedSeconds":40,"observedAt":1700000000}`, true},
	{"whitespace and any key order", " {\n\t\"engine\" : \"spark\" ,\r\n \"observedSeconds\":1e0, \"signature\":\"\" } ", true},
	{"empty object", `{}`, true},
	{"html characters in a string", `{"signature":"a<b>&c","engine":"hive","observedSeconds":1}`, true},
	{"exponents and negative zero", `{"engine":"hive","predictedSeconds":1e21,"observedSeconds":1E-7,"predictedDollars":-0,"observedDollars":-0.0e+0}`, true},
	{"observedAt zero", `{"engine":"hive","observedSeconds":1,"observedAt":0}`, true},
	{"observedAt negative zero", `{"engine":"hive","observedSeconds":1,"observedAt":-0}`, true},
	{"unknown algorithm name", `{"engine":"hive","observedSeconds":1,"operators":[{"algo":"NLJ"}]}`, true},
	{"empty operator object", `{"engine":"hive","observedSeconds":1,"operators":[{}]}`, true},

	{"escaped string", `{"signature":"a\"b","engine":"hive","observedSeconds":1}`, false},
	{"unicode escape", `{"signature":"\u0061","engine":"hive","observedSeconds":1}`, false},
	{"non-ASCII string", `{"signature":"⋈","engine":"hive","observedSeconds":1}`, false},
	{"invalid UTF-8", "{\"signature\":\"\xff\",\"engine\":\"hive\",\"observedSeconds\":1}", false},
	{"control character", "{\"signature\":\"a\tb\",\"engine\":\"hive\",\"observedSeconds\":1}", false},
	{"mixed-case key", `{"Engine":"hive","observedSeconds":1}`, false},
	{"duplicate key", `{"engine":"hive","engine":"spark","observedSeconds":1}`, false},
	{"duplicate operators", `{"engine":"hive","observedSeconds":1,"operators":[{"algo":"SMJ"}],"operators":[{"algo":"BHJ"}]}`, false},
	{"unknown key", `{"engine":"hive","observedSeconds":1,"frobnicate":1}`, false},
	{"null string", `{"engine":null,"observedSeconds":1}`, false},
	{"null operators", `{"engine":"hive","observedSeconds":1,"operators":null}`, false},
	{"empty operators", `{"engine":"hive","observedSeconds":1,"operators":[]}`, false},
	{"observedAt as a float", `{"engine":"hive","observedSeconds":1,"observedAt":1.0}`, false},
	{"observedAt with an exponent", `{"engine":"hive","observedSeconds":1,"observedAt":1e3}`, false},
	{"observedAt out of range", `{"engine":"hive","observedSeconds":1,"observedAt":9223372036854775808}`, false},
	{"float out of range", `{"engine":"hive","observedSeconds":1e999}`, false},
	{"leading zero", `{"engine":"hive","observedSeconds":01}`, false},
	{"leading plus", `{"engine":"hive","observedSeconds":+1}`, false},
	{"bare fraction", `{"engine":"hive","observedSeconds":.5}`, false},
	{"trailing point", `{"engine":"hive","observedSeconds":1.}`, false},
	{"hex float", `{"engine":"hive","observedSeconds":0x1p-2}`, false},
	{"number as a string", `{"engine":"hive","observedSeconds":"1"}`, false},
	{"trailing comma", `{"engine":"hive","observedSeconds":1,}`, false},
	{"trailing data", `{"engine":"hive","observedSeconds":1}{}`, false},
	{"cut short", `{"engine":"hive","observedSeco`, false},
	{"not json", `not json`, false},
	{"array", `[{"engine":"hive"}]`, false},
}

// decodeBoth decodes line with the codec and with encoding/json and fails
// unless, whenever the codec takes it, encoding/json does too and gives
// the same value. It returns whether the codec took it.
func decodeBoth(t *testing.T, line []byte) bool {
	t.Helper()
	var got, want Observation
	var d decoder
	ok := d.line(line, &got)
	err := json.Unmarshal(line, &want)
	if ok && err != nil {
		t.Fatalf("codec accepts %q, encoding/json says %v", line, err)
	}
	if ok && !reflect.DeepEqual(got, want) {
		t.Fatalf("line %q\n codec %#v\n json  %#v", line, got, want)
	}
	return ok
}

func TestDecoderGrammar(t *testing.T) {
	for _, c := range codecLines {
		if ok := decodeBoth(t, []byte(c.line)); ok != c.canonical {
			t.Errorf("%s: codec took it = %v, want %v", c.name, ok, c.canonical)
		}
	}
}

// TestDecoderSlab: observations decoded in a run share a slab of operator
// samples without sharing elements, and appending to one observation's
// operators cannot reach the next one's.
func TestDecoderSlab(t *testing.T) {
	var d decoder
	line := []byte(codecLines[0].line)
	obs := make([]Observation, 40)
	for i := range obs {
		if !d.line(line, &obs[i]) {
			t.Fatal("bench-shaped line declined")
		}
	}
	// A declined line in the middle of a run must not disturb what was
	// handed out before it or what comes after.
	var scratch Observation
	if d.line([]byte(`{"engine":"hive","operators":[{"algo":"SMJ"},{"algo":7}]}`), &scratch) {
		t.Fatal("malformed line accepted")
	}
	var last Observation
	if !d.line(line, &last) {
		t.Fatal("bench-shaped line declined after a malformed one")
	}
	obs = append(obs, last)
	want := obs[0].Operators[1]
	for i := range obs {
		obs[i].Operators = append(obs[i].Operators, OperatorSample{Algo: "clobber"})
	}
	for i := range obs {
		if obs[i].Operators[1] != want || obs[i].Operators[0].Algo != "SMJ" {
			t.Fatalf("observation %d: operators %+v", i, obs[i].Operators)
		}
	}
}

// appendSeeds are FuzzObservationAppend's named inputs: strings that need
// escaping or not, and the float bit patterns where encoding/json changes
// format or refuses.
var appendSeeds = []struct {
	sig, engine, algo string
	a, b, c, d        float64
	at                int64
	nops              uint8
}{
	{"bench-12", "hive", "SMJ", 173.40871843930694, 215.64410862899327, 0, 0, 1700000625, 2},
	{"smoke-1", "hive", "BHJ", 10, 40, 0, 0, 0, 0},
	{"a\"b\\c", "spark", "SMJ", 1, 2, 3, 4, -5, 1},
	{"<script>&amp;", "hive", "NLJ", 1e21, 1e-7, 1e20, 1e-6, 1, 1},
	{"join ⋈   ", "hive\x00", "\xff\xfe", 0.000001, 999999999999999999999, math.Copysign(0, -1), 5e-324, math.MaxInt64, 3},
	{"\x7f\x1f", "", "", math.MaxFloat64, -math.MaxFloat64, 1e-10, 123456789.123456789, math.MinInt64, 1},
	{"nan", "hive", "SMJ", math.NaN(), 1, 0, 0, 0, 0},
	{"inf", "hive", "SMJ", 1, math.Inf(1), 0, 0, 0, 1},
	{"negative infinity", "hive", "SMJ", 1, 1, 0, math.Inf(-1), 0, 2},
}

// FuzzObservationAppend holds AppendJSON to json.Marshal on observations
// built from arbitrary string bytes and float bit patterns: the same bytes,
// or the same error with dst untouched; and what it writes decodes back,
// through the codec itself whenever the codec wrote it.
func FuzzObservationAppend(f *testing.F) {
	for _, s := range appendSeeds {
		f.Add(s.sig, s.engine, s.algo, math.Float64bits(s.a), math.Float64bits(s.b),
			math.Float64bits(s.c), math.Float64bits(s.d), s.at, s.nops)
	}
	f.Fuzz(func(t *testing.T, sig, engine, algo string, a, b, c, d uint64, at int64, nops uint8) {
		fl := func(x uint64, k int) float64 { return math.Float64frombits(bits.RotateLeft64(x, 13*k)) }
		o := Observation{
			Signature: sig, Engine: engine,
			PredictedSeconds: fl(a, 0), ObservedSeconds: fl(b, 0),
			PredictedDollars: units.USD(fl(c, 0)), ObservedDollars: units.USD(fl(d, 0)),
			ObservedAt: at,
		}
		for k := 1; k <= int(nops%4); k++ {
			o.Operators = append(o.Operators, OperatorSample{
				Algo: algo, SSGB: fl(a, k), CSGB: fl(b, k), NC: fl(c, k),
				PredictedSeconds: fl(d, k), ObservedSeconds: fl(a^b, k),
			})
		}
		want, wantErr := json.Marshal(o)
		got, err := AppendJSON([]byte("dst"), &o)
		if wantErr != nil {
			if err == nil || err.Error() != wantErr.Error() || string(got) != "dst" {
				t.Fatalf("json.Marshal fails with %v; AppendJSON gives %q, %v", wantErr, got, err)
			}
			return
		}
		if err != nil || !bytes.Equal(got, append([]byte("dst"), want...)) {
			t.Fatalf("AppendJSON = %q, %v\njson.Marshal = %q", got, err, want)
		}
		if took := decodeBoth(t, want); canonical(&o) && !took {
			t.Fatalf("the codec wrote %q and declines to read it", want)
		}
	})
}
