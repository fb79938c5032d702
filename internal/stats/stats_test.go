package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= tol*math.Max(1, m)
}

func TestGeometricMean(t *testing.T) {
	if got := GeometricMean([]float64{10, 1000}); !almost(got, 100, 1e-12) {
		t.Errorf("GeometricMean = %v", got)
	}
	if got := GeometricMean(nil); got != 0 {
		t.Errorf("empty = %v", got)
	}
	if got := GeometricMean([]float64{5, 0}); got != 0 {
		t.Errorf("zero = %v", got)
	}
	if got := GeometricMean([]float64{-1, 4}); !math.IsNaN(got) {
		t.Errorf("negative = %v, want NaN", got)
	}
	if got := GeometricMean([]float64{7}); !almost(got, 7, 1e-12) {
		t.Errorf("singleton = %v", got)
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("empty Mean = %v", got)
	}
}

func TestLogGrid(t *testing.T) {
	g := LogGrid(1, 1e6, 10)
	if len(g) != 10 {
		t.Fatalf("len = %d", len(g))
	}
	if !almost(g[0], 1, 1e-12) || !almost(g[9], 1e6, 1e-9) {
		t.Errorf("endpoints = %v, %v", g[0], g[9])
	}
	// The Appendix sample points: 1, 4.64, 21.5, 100, …
	if !almost(g[1], 4.6415888, 1e-6) || !almost(g[2], 21.5443469, 1e-6) || !almost(g[3], 100, 1e-9) {
		t.Errorf("grid = %v", g[:4])
	}
	// Constant ratio.
	for i := 2; i < len(g); i++ {
		if !almost(g[i]/g[i-1], g[1]/g[0], 1e-9) {
			t.Errorf("ratio not constant at %d", i)
		}
	}
	if LogGrid(0, 10, 3) != nil || LogGrid(10, 1, 3) != nil || LogGrid(1, 10, 0) != nil {
		t.Error("invalid grids should be nil")
	}
	if g := LogGrid(5, 100, 1); len(g) != 1 || g[0] != 5 {
		t.Errorf("single-point grid = %v", g)
	}
}

func TestLinGrid(t *testing.T) {
	g := LinGrid(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range want {
		if !almost(g[i], want[i], 1e-12) {
			t.Fatalf("LinGrid = %v", g)
		}
	}
	if LinGrid(1, 0, 2) != nil || LinGrid(0, 1, 0) != nil {
		t.Error("invalid grids should be nil")
	}
	if g := LinGrid(3, 9, 1); len(g) != 1 || g[0] != 3 {
		t.Errorf("single-point grid = %v", g)
	}
}

func TestLeastSquaresExact(t *testing.T) {
	// y = 2·a + 3·b fits exactly.
	x := [][]float64{{1, 0}, {0, 1}, {1, 1}, {2, 1}}
	y := []float64{2, 3, 5, 7}
	beta, err := LeastSquares(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(beta[0], 2, 1e-9) || !almost(beta[1], 3, 1e-9) {
		t.Errorf("beta = %v", beta)
	}
}

func TestLeastSquaresErrors(t *testing.T) {
	if _, err := LeastSquares(nil, nil); err == nil {
		t.Error("empty system accepted")
	}
	if _, err := LeastSquares([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Error("underdetermined system accepted")
	}
	if _, err := LeastSquares([][]float64{{1, 2}, {3}}, []float64{1, 2}); err == nil {
		t.Error("ragged matrix accepted")
	}
	// Collinear predictors are singular.
	x := [][]float64{{1, 2}, {2, 4}, {3, 6}}
	if _, err := LeastSquares(x, []float64{1, 2, 3}); err == nil {
		t.Error("singular system accepted")
	}
	if _, err := LeastSquares([][]float64{{1}, {2}}, []float64{1}); err == nil {
		t.Error("mismatched y accepted")
	}
}

// TestLeastSquaresRecoversRandomModel: property test — noise-free synthetic
// observations recover the coefficients.
func TestLeastSquaresRecoversRandomModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 2 + rng.Intn(3)
		truth := make([]float64, p)
		for i := range truth {
			truth[i] = rng.Float64()*10 - 5
		}
		rows := p + 3 + rng.Intn(5)
		x := make([][]float64, rows)
		y := make([]float64, rows)
		for r := range x {
			x[r] = make([]float64, p)
			for c := range x[r] {
				x[r][c] = rng.Float64() * 4
			}
			for c := range x[r] {
				y[r] += truth[c] * x[r][c]
			}
		}
		beta, err := LeastSquares(x, y)
		if err != nil {
			return true // degenerate random draw; fine
		}
		for i := range beta {
			if !almost(beta[i], truth[i], 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestFitFormula3RoundTrip: synthesize timings from known constants and
// recover them.
func TestFitFormula3RoundTrip(t *testing.T) {
	tLoop, tCond, tSubset := 5e-9, 2e-8, 4e-8
	var ns []int
	var secs []float64
	for n := 4; n <= 15; n++ {
		ns = append(ns, n)
		secs = append(secs, EvalFormula3(n, tLoop, tCond, tSubset))
	}
	gl, gc, gs, err := FitFormula3(ns, secs)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(gl, tLoop, 1e-6) || !almost(gc, tCond, 1e-6) || !almost(gs, tSubset, 1e-6) {
		t.Errorf("fit = %v %v %v, want %v %v %v", gl, gc, gs, tLoop, tCond, tSubset)
	}
	if _, _, _, err := FitFormula3([]int{1, 2}, []float64{1}); err == nil {
		t.Error("mismatched fit accepted")
	}
}
