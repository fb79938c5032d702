package main

import (
	"math"
	"math/rand"
	"testing"

	"blitzsplit/internal/core"
)

// plantedFills builds fills whose times follow formula (3) with the given
// constants, times noise drawn uniformly from ±noise.
func plantedFills(rng *rand.Rand, tLoop, tCond, tSubset, noise float64) []fillSample {
	var fills []fillSample
	for n := 6; n <= 14; n++ {
		for k := 0; k < 8; k++ {
			c := core.Counters{
				LoopIters:      uint64(math.Pow(3, float64(n)) * (0.9 + 0.2*rng.Float64())),
				CondHits:       uint64(0.35 * float64(n) * math.Pow(2, float64(n)) * (0.5 + rng.Float64())),
				SubsetsVisited: uint64(1<<n - n - 1),
			}
			ns := tLoop*float64(c.LoopIters) + tCond*float64(c.CondHits) + tSubset*float64(c.SubsetsVisited)
			fills = append(fills, fillSample{model: "naive", counters: c, ns: int64(ns * (1 + noise*(2*rng.Float64()-1)))})
		}
	}
	return fills
}

func TestFormula3RecoversPlantedConstants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, want := range [][3]float64{{2.5, 20, 80}, {1.2, 0, 55}, {4, 7, 0}} {
		f, ok := fitFormula3(plantedFills(rng, want[0], want[1], want[2], 0))
		if !ok {
			t.Fatalf("fit of %v failed", want)
		}
		got := [3]float64{f.tLoop, f.tCond, f.tSubset}
		for j := range got {
			if math.Abs(got[j]-want[j]) > 0.01*want[j]+0.01 { // 0.01 ns where the planted constant is 0
				t.Errorf("planted %v: fitted %v", want, got)
				break
			}
		}
		if f.errPct > 0.01 {
			t.Errorf("planted %v: error %.3g%%", want, f.errPct)
		}
	}
}

func TestNNLSClampsNegativeCoefficients(t *testing.T) {
	// y = 2·x0 − 1·x1 unconstrained; with b ≥ 0 the fit must drop x1.
	x := [][]float64{{1, 0}, {2, 1}, {3, 1}, {4, 3}}
	y := []float64{2, 3, 5, 5}
	b, ok := nnls(x, y)
	if !ok || b[1] != 0 || b[0] <= 0 {
		t.Errorf("nnls = %v, %v; want b1 = 0 and b0 > 0", b, ok)
	}
}

func TestFormula3ToleratesNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f, ok := fitFormula3(plantedFills(rng, 3, 15, 90, 0.02))
	if !ok || math.Abs(f.tLoop-3) > 0.1 || f.errPct > 2 {
		t.Errorf("fit under 2%% noise: %+v", f)
	}
}
