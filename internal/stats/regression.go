// Package stats implements the small amount of numerical machinery the
// paper's cost model needs: ordinary least squares (optionally ridge
// regularized) solved via the normal equations, the paper's feature map for
// join cost models, and fit-quality metrics.
package stats

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when the normal-equation system is singular (e.g.
// perfectly collinear features and no ridge penalty).
var ErrSingular = errors.New("stats: singular system; add samples or a ridge penalty")

// Features maps the paper's raw resource-planning inputs to the Section VI-A
// feature vector [ss, ss², cs, cs², nc, nc², cs·nc] where ss is the smaller
// input size (GB), cs the container size (GB) and nc the number of
// containers. The squared and interaction terms "capture non-linear behavior
// and the interaction between cs and nc".
func Features(ss, cs, nc float64) []float64 {
	return []float64{ss, ss * ss, cs, cs * cs, nc, nc * nc, cs * nc}
}

// NumFeatures is the length of the vector returned by Features.
const NumFeatures = 7

// LinearModel is a fitted linear model y ≈ Intercept + Coef·x.
type LinearModel struct {
	Coef      []float64
	Intercept float64
}

// Predict evaluates the model on a feature vector. It panics if the length
// does not match the fitted coefficients, which indicates a programming
// error rather than bad data.
func (m *LinearModel) Predict(x []float64) float64 {
	if len(x) != len(m.Coef) {
		panic(fmt.Sprintf("stats: predict with %d features, model has %d", len(x), len(m.Coef)))
	}
	y := m.Intercept
	for i, xi := range x {
		y += m.Coef[i] * xi
	}
	return y
}

// FitOptions controls the regression.
type FitOptions struct {
	// Ridge is the L2 penalty λ added to the diagonal of XᵀX (the intercept
	// is never penalized). Zero means plain OLS.
	Ridge float64
	// NoIntercept fits y ≈ Coef·x with no constant term.
	NoIntercept bool
}

// Fit solves least squares for y ≈ b0 + b·x over the given samples.
// xs[i] must all have the same length.
func Fit(xs [][]float64, ys []float64, opt FitOptions) (*LinearModel, error) {
	if len(xs) == 0 {
		return nil, errors.New("stats: no samples")
	}
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("stats: %d feature rows vs %d targets", len(xs), len(ys))
	}
	p := len(xs[0])
	if p == 0 {
		return nil, errors.New("stats: empty feature vector")
	}
	for i, x := range xs {
		if len(x) != p {
			return nil, fmt.Errorf("stats: row %d has %d features, want %d", i, len(x), p)
		}
	}
	if opt.Ridge < 0 {
		return nil, fmt.Errorf("stats: negative ridge penalty %v", opt.Ridge)
	}
	cols := p
	if !opt.NoIntercept {
		cols++
	}
	// Build the normal equations A = XᵀX (+ λI), b = Xᵀy. Column 0 is the
	// intercept when present.
	a := make([][]float64, cols)
	for i := range a {
		a[i] = make([]float64, cols)
	}
	b := make([]float64, cols)
	row := make([]float64, cols)
	for s, x := range xs {
		if opt.NoIntercept {
			copy(row, x)
		} else {
			row[0] = 1
			copy(row[1:], x)
		}
		for i := 0; i < cols; i++ {
			for j := 0; j < cols; j++ {
				a[i][j] += row[i] * row[j]
			}
			b[i] += row[i] * ys[s]
		}
	}
	if opt.Ridge > 0 {
		start := 0
		if !opt.NoIntercept {
			start = 1 // do not penalize the intercept
		}
		for i := start; i < cols; i++ {
			a[i][i] += opt.Ridge
		}
	}
	sol, err := solve(a, b)
	if err != nil {
		return nil, err
	}
	m := &LinearModel{}
	if opt.NoIntercept {
		m.Coef = sol
	} else {
		m.Intercept = sol[0]
		m.Coef = sol[1:]
	}
	return m, nil
}

// solve performs Gaussian elimination with partial pivoting on a·x = b,
// destroying its inputs.
func solve(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	for col := 0; col < n; col++ {
		// Pivot: largest |a[row][col]| for row >= col.
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < 1e-12 {
			return nil, ErrSingular
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		inv := 1 / a[col][col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := b[i]
		for j := i + 1; j < n; j++ {
			sum -= a[i][j] * x[j]
		}
		x[i] = sum / a[i][i]
	}
	return x, nil
}
