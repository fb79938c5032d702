// Package stats provides the small numeric toolkit the benchmark harness
// needs: geometric means, logarithmic parameter grids (the Appendix
// cardinality axis),
// and linear least squares (for fitting the paper's execution-time formula
// (3) to measured timings, as done for Figure 2).
package stats

import (
	"errors"
	"math"
)

// GeometricMean returns (∏ xs)^(1/len), computed in log space. It returns 0
// for an empty slice or when any value is 0, and NaN if any value is
// negative.
func GeometricMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x < 0 {
			return math.NaN()
		}
		if x == 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Mean returns the arithmetic mean (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// LogGrid returns points from lo to hi (inclusive, within floating rounding)
// spaced uniformly in log space: the Appendix mean-cardinality axis uses
// LogGrid(1, 1e6, 10) → 1, 4.64, 21.5, 100, 464, ….
func LogGrid(lo, hi float64, points int) []float64 {
	if points <= 0 || lo <= 0 || hi < lo {
		return nil
	}
	if points == 1 {
		return []float64{lo}
	}
	out := make([]float64, points)
	step := (math.Log(hi) - math.Log(lo)) / float64(points-1)
	for i := range out {
		out[i] = math.Exp(math.Log(lo) + float64(i)*step)
	}
	return out
}

// LinGrid returns points from lo to hi inclusive, uniformly spaced.
func LinGrid(lo, hi float64, points int) []float64 {
	if points <= 0 || hi < lo {
		return nil
	}
	if points == 1 {
		return []float64{lo}
	}
	out := make([]float64, points)
	step := (hi - lo) / float64(points-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	return out
}

// ErrSingular indicates the least-squares system has no unique solution.
var ErrSingular = errors.New("stats: singular least-squares system")

// LeastSquares solves min ‖X·β − y‖² for β by normal equations with Gaussian
// elimination (partial pivoting). X is row-major: len(X) observations, each
// with the same number of predictors. Small systems only (the harness fits 3
// coefficients).
func LeastSquares(x [][]float64, y []float64) ([]float64, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, errors.New("stats: dimension mismatch")
	}
	p := len(x[0])
	if p == 0 || len(x) < p {
		return nil, errors.New("stats: underdetermined system")
	}
	// Normal equations: (XᵀX) β = Xᵀy.
	a := make([][]float64, p)
	for i := range a {
		a[i] = make([]float64, p+1)
	}
	for r, row := range x {
		if len(row) != p {
			return nil, errors.New("stats: ragged design matrix")
		}
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				a[i][j] += row[i] * row[j]
			}
			a[i][p] += row[i] * y[r]
		}
	}
	// Gaussian elimination with partial pivoting.
	for col := 0; col < p; col++ {
		pivot := col
		for r := col + 1; r < p; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-300 {
			return nil, ErrSingular
		}
		a[col], a[pivot] = a[pivot], a[col]
		for r := 0; r < p; r++ {
			if r == col {
				continue
			}
			f := a[r][col] / a[col][col]
			for c := col; c <= p; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	beta := make([]float64, p)
	for i := range beta {
		beta[i] = a[i][p] / a[i][i]
	}
	return beta, nil
}

// FitFormula3 fits the paper's execution-time formula (3)
//
//	time(n) = 3^n·T_loop + (ln2/2)·n·2^n·T_cond + 2^n·T_subset
//
// to measured (n, seconds) pairs, returning the three constants in seconds.
// Coefficients are not constrained to be nonnegative; with few or noisy
// points the smaller terms can fit slightly negative, which the caller
// should treat as ≈ 0.
func FitFormula3(ns []int, seconds []float64) (tLoop, tCond, tSubset float64, err error) {
	if len(ns) != len(seconds) {
		return 0, 0, 0, errors.New("stats: dimension mismatch")
	}
	x := make([][]float64, len(ns))
	for i, n := range ns {
		fn := float64(n)
		x[i] = []float64{
			math.Pow(3, fn),
			math.Ln2 / 2 * fn * math.Pow(2, fn),
			math.Pow(2, fn),
		}
	}
	beta, err := LeastSquares(x, seconds)
	if err != nil {
		return 0, 0, 0, err
	}
	return beta[0], beta[1], beta[2], nil
}

// EvalFormula3 evaluates formula (3) at n with the given constants.
func EvalFormula3(n int, tLoop, tCond, tSubset float64) float64 {
	fn := float64(n)
	return math.Pow(3, fn)*tLoop + math.Ln2/2*fn*math.Pow(2, fn)*tCond + math.Pow(2, fn)*tSubset
}
