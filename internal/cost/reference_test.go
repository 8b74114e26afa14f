package cost

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"raqo/internal/stats"
)

// refCost is Regression.Cost as it was before it was unrolled, kept as the
// oracle of the unrolled form: Predict over the Features slice, floored
// with math.Max.
func refCost(r *Regression, ss, cs, nc float64) float64 {
	p := r.Linear.Predict(stats.Features(ss, cs, nc))
	if r.Unfloored {
		return p
	}
	return math.Max(p, minCost)
}

// costPanic returns what a call panics with, or nil.
func costPanic(f func() float64) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// checkCost fails unless Cost and the reference return the same bits, or
// panic with the same value, for r at (ss, cs, nc), floored and unfloored.
func checkCost(t testing.TB, r *Regression, ss, cs, nc float64) {
	t.Helper()
	for _, unfloored := range []bool{false, true} {
		r.Unfloored = unfloored
		gotP := costPanic(func() float64 { return r.Cost(ss, cs, nc) })
		wantP := costPanic(func() float64 { return refCost(r, ss, cs, nc) })
		if fmt.Sprint(gotP) != fmt.Sprint(wantP) {
			t.Fatalf("coef %v unfloored=%v: panic %v, reference %v", r.Linear.Coef, unfloored, gotP, wantP)
		}
		if gotP != nil {
			continue
		}
		got, want := r.Cost(ss, cs, nc), refCost(r, ss, cs, nc)
		if unfloored && math.IsNaN(got) && math.IsNaN(want) {
			// Which operand's NaN a sum of two NaNs keeps is up to the
			// compiler's operand order; floored, both are math.Max's NaN.
			continue
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("coef %v intercept %v unfloored=%v: Cost(%v, %v, %v) = %v (%#x), reference %v (%#x)",
				r.Linear.Coef, r.Linear.Intercept, unfloored, ss, cs, nc, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestRegressionCostMatchesPredict holds the unrolled Cost to Predict over
// Features, bit for bit: the paper's models and random ones, at inputs that
// are NaN, ±Inf, −0, huge, and that put the prediction below, exactly at
// and just above the floor, floored and unfloored; and the same panic for a
// coefficient vector of the wrong length.
func TestRegressionCostMatchesPredict(t *testing.T) {
	specials := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 3, 1000, 1e154, -1e154, math.MaxFloat64,
		-math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	models := []*Regression{PaperSMJ(), PaperBHJ()}
	// A constant model whose prediction is the intercept puts it exactly
	// on, just under and just over the floor, and at NaN and ±Inf.
	for _, b := range []float64{minCost, math.Nextafter(minCost, 0), math.Nextafter(minCost, 1), -0.0, math.NaN(), math.Inf(1), math.Inf(-1)} {
		models = append(models, &Regression{Linear: &stats.LinearModel{Coef: make([]float64, stats.NumFeatures), Intercept: b}})
	}
	rng := rand.New(rand.NewSource(2018))
	for range 64 {
		coef := make([]float64, stats.NumFeatures)
		for i := range coef {
			coef[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
		}
		models = append(models, &Regression{Linear: &stats.LinearModel{Coef: coef, Intercept: rng.NormFloat64() * 100}})
	}
	for _, r := range models {
		for _, ss := range specials {
			checkCost(t, r, ss, 3, 10)
			checkCost(t, r, 1, ss, 10)
			checkCost(t, r, 1, 3, ss)
		}
		for range 200 {
			checkCost(t, r, rng.ExpFloat64()*10, 1+rng.Float64()*15, float64(1+rng.Intn(1000)))
		}
	}
	for _, n := range []int{0, 6, 8} {
		r := &Regression{Linear: &stats.LinearModel{Coef: make([]float64, n)}}
		if costPanic(func() float64 { return r.Cost(1, 2, 3) }) == nil {
			t.Errorf("a %d-coefficient model did not panic", n)
		}
		checkCost(t, r, 1, 2, 3)
	}
}

// FuzzRegressionCost holds Cost to the reference on the intercept and
// input bits of the fuzz input and seven coefficients whose bits are read
// from its bytes, eight each, missing bytes zero — floored and unfloored.
// The seed corpus (below and under testdata/fuzz) runs under plain
// `go test`.
func FuzzRegressionCost(f *testing.F) {
	bits := func(fs ...float64) []byte {
		var b []byte
		for _, x := range fs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	smj, bhj := PaperSMJ().Linear.Coef, PaperBHJ().Linear.Coef
	f.Add(math.Float64bits(0), math.Float64bits(1), math.Float64bits(3), math.Float64bits(10), bits(smj...))
	f.Add(math.Float64bits(0), math.Float64bits(100), math.Float64bits(1), math.Float64bits(1), bits(bhj...))
	f.Add(math.Float64bits(0.1), math.Float64bits(-0.0), math.Float64bits(1e300), math.Float64bits(math.NaN()), bits(1, math.Inf(1), -1))
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), []byte{})
	f.Fuzz(func(t *testing.T, intercept, ss, cs, nc uint64, coefBits []byte) {
		coef := make([]float64, stats.NumFeatures)
		for i := range coef {
			var w [8]byte
			if i*8 < len(coefBits) {
				copy(w[:], coefBits[i*8:])
			}
			coef[i] = math.Float64frombits(binary.LittleEndian.Uint64(w[:]))
		}
		r := &Regression{Linear: &stats.LinearModel{Coef: coef, Intercept: math.Float64frombits(intercept)}}
		checkCost(t, r, math.Float64frombits(ss), math.Float64frombits(cs), math.Float64frombits(nc))
	})
}
