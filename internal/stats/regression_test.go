package stats

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestFitRecoversPlantedLine(t *testing.T) {
	// y = 3 + 2x0 - 5x1, exact (no noise).
	xs := [][]float64{{0, 0}, {1, 0}, {0, 1}, {2, 3}, {5, -1}, {-2, 4}}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 + 2*x[0] - 5*x[1]
	}
	m, err := Fit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(m.Intercept, 3, 1e-9) || !almost(m.Coef[0], 2, 1e-9) || !almost(m.Coef[1], -5, 1e-9) {
		t.Errorf("got intercept=%v coef=%v", m.Intercept, m.Coef)
	}
}

func TestFitRecoversNoisyCoefficients(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	truth := []float64{1.5, -0.7, 4.0}
	var xs [][]float64
	var ys []float64
	for i := 0; i < 500; i++ {
		x := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		y := 10.0
		for j, c := range truth {
			y += c * x[j]
		}
		y += rng.NormFloat64() * 0.01
		xs = append(xs, x)
		ys = append(ys, y)
	}
	m, err := Fit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(m.Intercept, 10, 0.01) {
		t.Errorf("intercept = %v, want ≈10", m.Intercept)
	}
	for j, c := range truth {
		if !almost(m.Coef[j], c, 0.01) {
			t.Errorf("coef[%d] = %v, want ≈%v", j, m.Coef[j], c)
		}
	}
}

func TestFitSingular(t *testing.T) {
	// Perfectly collinear columns: the ridge makes the system solvable.
	xs := [][]float64{{1, 2}, {2, 4}, {3, 6}}
	ys := []float64{1, 2, 3}
	m, err := Fit(xs, ys)
	if err != nil {
		t.Fatalf("collinear fit failed: %v", err)
	}
	for i, x := range xs {
		if got := m.Predict(x); !almost(got, ys[i], 1e-6) {
			t.Errorf("collinear fit predicts %v at %v, want %v", got, x, ys[i])
		}
	}
	// A constant column of 2^20 loses the ridge to rounding: XᵀX's
	// 3·2^40 has no bit for 1e-9, and elimination cancels exactly.
	big := [][]float64{{1 << 20}, {1 << 20}, {1 << 20}}
	if _, err := Fit(big, ys); !errors.Is(err, ErrSingular) {
		t.Errorf("constant 2^20 column: err = %v, want ErrSingular", err)
	}
}

func TestFitValidation(t *testing.T) {
	if _, err := Fit(nil, nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := Fit([][]float64{{1}, {2, 3}}, []float64{1, 2}); err == nil {
		t.Error("ragged rows accepted")
	}
	if _, err := Fit([][]float64{{}}, []float64{1}); err == nil {
		t.Error("empty feature vector accepted")
	}
}

func TestFeaturesShape(t *testing.T) {
	f := Features(2, 3, 4)
	want := []float64{2, 4, 3, 9, 4, 16, 12}
	if len(f) != NumFeatures {
		t.Fatalf("len = %d, want %d", len(f), NumFeatures)
	}
	for i := range want {
		if f[i] != want[i] {
			t.Errorf("Features[%d] = %v, want %v", i, f[i], want[i])
		}
	}
}

// Property: fitting a function that is exactly linear in the paper feature
// space recovers it to numerical precision, for arbitrary planted
// coefficients.
func TestFitFeatureSpaceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		truth := make([]float64, NumFeatures)
		for i := range truth {
			truth[i] = rng.NormFloat64() * 10
		}
		intercept := rng.NormFloat64() * 100
		var xs [][]float64
		var ys []float64
		for i := 0; i < 200; i++ {
			ss := rng.Float64() * 12
			cs := 1 + rng.Float64()*9
			nc := 1 + float64(rng.Intn(100))
			x := Features(ss, cs, nc)
			y := intercept
			for j := range truth {
				y += truth[j] * x[j]
			}
			xs = append(xs, x)
			ys = append(ys, y)
		}
		m, err := Fit(xs, ys)
		if err != nil {
			return false
		}
		if !almost(m.Intercept, intercept, 1e-4*(1+math.Abs(intercept))) {
			return false
		}
		for j := range truth {
			if !almost(m.Coef[j], truth[j], 1e-4*(1+math.Abs(truth[j]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestPredictPanicsOnBadLength(t *testing.T) {
	m := &LinearModel{Coef: []float64{1, 2}}
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	m.Predict([]float64{1})
}
