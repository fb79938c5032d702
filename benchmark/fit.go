package main

import "math"

// nnls solves min ‖Xb − y‖² subject to b ≥ 0 for a handful of columns by
// trying every support set: the unconstrained least-squares fit on each
// subset of columns, kept when all its coefficients are non-negative, the
// best residual winning. With three columns that is seven small solves, and
// the answer is the exact constrained optimum. Columns are scaled to unit
// norm first, so counters of very different magnitudes (3^n loop iterations
// beside 2^n subsets) stay well conditioned. ok is false when no support set
// has a solvable system.
func nnls(x [][]float64, y []float64) (b []float64, ok bool) {
	if len(x) == 0 {
		return nil, false
	}
	k := len(x[0])
	scale := make([]float64, k)
	for j := 0; j < k; j++ {
		for _, row := range x {
			scale[j] += row[j] * row[j]
		}
		scale[j] = math.Sqrt(scale[j])
		if scale[j] == 0 {
			scale[j] = 1
		}
	}
	best := math.Inf(1)
	for mask := 1; mask < 1<<k; mask++ {
		var cols []int
		for j := 0; j < k; j++ {
			if mask&(1<<j) != 0 {
				cols = append(cols, j)
			}
		}
		// Normal equations over the support, in scaled coordinates.
		m := len(cols)
		a := make([][]float64, m)
		for r := range a {
			a[r] = make([]float64, m+1)
		}
		for i, row := range x {
			for r, cr := range cols {
				v := row[cr] / scale[cr]
				for c, cc := range cols {
					a[r][c] += v * row[cc] / scale[cc]
				}
				a[r][m] += v * y[i]
			}
		}
		sol, solved := solve(a)
		if !solved {
			continue
		}
		cand := make([]float64, k)
		feasible := true
		for r, c := range cols {
			if sol[r] < 0 {
				feasible = false
				break
			}
			cand[c] = sol[r] / scale[c]
		}
		if !feasible {
			continue
		}
		if res := residual(x, y, cand); res < best {
			best, b, ok = res, cand, true
		}
	}
	return b, ok
}

// solve runs Gaussian elimination with partial pivoting on the augmented
// matrix a (m rows, m+1 columns) and reports false when it is singular.
func solve(a [][]float64) ([]float64, bool) {
	m := len(a)
	for col := 0; col < m; col++ {
		p := col
		for r := col + 1; r < m; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[p][col]) {
				p = r
			}
		}
		if math.Abs(a[p][col]) < 1e-9 {
			return nil, false
		}
		a[col], a[p] = a[p], a[col]
		for r := col + 1; r < m; r++ {
			f := a[r][col] / a[col][col]
			for c := col; c <= m; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	x := make([]float64, m)
	for r := m - 1; r >= 0; r-- {
		v := a[r][m]
		for c := r + 1; c < m; c++ {
			v -= a[r][c] * x[c]
		}
		x[r] = v / a[r][r]
	}
	return x, true
}

func residual(x [][]float64, y, b []float64) float64 {
	total := 0.0
	for i, row := range x {
		d := -y[i]
		for j, v := range row {
			d += v * b[j]
		}
		total += d * d
	}
	return total
}

// formula3 is the paper's model of the DP fill fitted to traced fills:
// time ≈ LoopIters·T_loop + CondHits·T_cond + SubsetsVisited·T_subset, with
// the exact counters standing in for the 3^n, (ln2/2)·n·2^n and 2^n terms.
type formula3 struct {
	tLoop, tCond, tSubset float64 // ns
	errPct                float64
}

// fitFormula3 fits formula (3) to one cost model's fills by non-negative
// least squares and reports the median absolute error of the fitted
// prediction as a percentage of the measured fill time.
func fitFormula3(fills []fillSample) (formula3, bool) {
	if len(fills) < 3 {
		return formula3{}, false
	}
	// Each row is divided by its measured time, so the fit minimizes
	// relative error: fills from n = 6 to n = 14 differ by 10^3 in time,
	// and an absolute fit would ignore every small one.
	x := make([][]float64, len(fills))
	y := make([]float64, len(fills))
	for i, f := range fills {
		ns := float64(f.ns)
		x[i] = []float64{float64(f.counters.LoopIters) / ns, float64(f.counters.CondHits) / ns, float64(f.counters.SubsetsVisited) / ns}
		y[i] = 1
	}
	b, ok := nnls(x, y)
	if !ok {
		return formula3{}, false
	}
	errs := make([]float64, len(fills))
	for i := range fills {
		errs[i] = 100 * math.Abs(x[i][0]*b[0]+x[i][1]*b[1]+x[i][2]*b[2]-1)
	}
	return formula3{tLoop: b[0], tCond: b[1], tSubset: b[2], errPct: median(errs)}, true
}
