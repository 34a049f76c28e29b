package fpga

import (
	"testing"

	"oselmrl/internal/fixed"
)

// TestDatapathGolden locks the datapath bit-for-bit: a fixed parameter set
// and update sequence must produce exactly these Q20 words. Any change to
// the arithmetic (rounding mode, operation order, saturation) — intended
// or not — trips this test, which is the regression guarantee behind the
// "bit-accurate simulator" claim.
func TestDatapathGolden(t *testing.T) {
	core := NewCore(3, 4, 1, DefaultCycleModel())
	// Deterministic, hand-set parameters on the Q20 grid.
	alphaVals := [][]float64{
		{0.25, -0.5, 0.125, 0.75},
		{-0.25, 0.5, 0.375, -0.125},
		{0.0625, 0.3125, -0.4375, 0.15625},
	}
	for i, row := range alphaVals {
		for j, v := range row {
			core.Alpha.Set(i, j, fixed.FromFloat(v))
		}
	}
	for j, v := range []float64{0.1, -0.2, 0.3, 0.05} {
		core.Bias[j] = fixed.FromFloat(v)
	}
	for j, v := range []float64{0.5, -0.25, 0.75, 0.125} {
		core.Beta.Set(j, 0, fixed.FromFloat(v))
	}
	// P = 2·I (the δ = 0.5 initial value for an empty Gram matrix).
	for i := 0; i < 4; i++ {
		core.P.Set(i, i, fixed.FromFloat(2))
	}

	x := []fixed.Fixed{fixed.FromFloat(0.5), fixed.FromFloat(-0.25), fixed.FromFloat(0.125)}

	// Golden values recorded from the reference implementation.
	pred0 := core.Predict(x)[0]
	if got, want := int32(pred0), int32(385537); got != want {
		t.Errorf("golden predict = %d, want %d (%.6f vs %.6f)",
			got, want, pred0.Float(), fixed.Fixed(want).Float())
	}

	core.SeqTrain(x, []fixed.Fixed{fixed.FromFloat(0.9)})
	// β after one update.
	wantBeta := []int32{716094, -262144, 925466, 440092}
	for j := 0; j < 4; j++ {
		if got := int32(core.Beta.At(j, 0)); got != wantBeta[j] {
			t.Errorf("golden beta[%d] = %d, want %d", j, got, wantBeta[j])
		}
	}
	// P diagonal after the rank-1 downdate.
	wantPDiag := []int32{1884338, 2097152, 1985333, 1544757}
	for i := 0; i < 4; i++ {
		if got := int32(core.P.At(i, i)); got != wantPDiag[i] {
			t.Errorf("golden P[%d][%d] = %d, want %d", i, i, got, wantPDiag[i])
		}
	}
	// Cycle count is part of the contract too: 48 for the predict, 165 for
	// the seq_train.
	if got := core.Cycles(); got != 48+165 {
		t.Errorf("golden cycles = %d", got)
	}
}
