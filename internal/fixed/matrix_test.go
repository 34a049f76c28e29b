package fixed

import (
	"testing"

	"oselmrl/internal/mat"
	"oselmrl/internal/rng"
)

func TestMatrixRoundTrip(t *testing.T) {
	r := rng.New(1)
	d := mat.Zeros(4, 5)
	r.FillUniform(d.RawData(), -100, 100)
	// Snap to the Q20 grid first so the round trip is exact.
	for i, v := range d.RawData() {
		d.RawData()[i] = FromFloat(v).Float()
		_ = i
	}
	fm := FromDenseQ(d, Q20, nil)
	back := fm.ToDense()
	if !mat.Equal(d, back, 0) {
		t.Error("FromDenseQ/ToDense round trip not exact on grid values")
	}
}

func TestMatrixAccessors(t *testing.T) {
	m := NewMatrixQ(2, 3, Q20)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("dims %dx%d", m.Rows(), m.Cols())
	}
	m.Set(1, 2, FromFloat(7))
	if m.At(1, 2).Float() != 7 {
		t.Errorf("At = %v", m.At(1, 2))
	}
	if m.Words() != 6 {
		t.Errorf("Words = %d", m.Words())
	}
}

func TestMatrixClone(t *testing.T) {
	m := NewMatrixQ(2, 2, Q20)
	m.Set(0, 0, FromFloat(1))
	c := m.Clone()
	c.Set(0, 0, FromFloat(9))
	if m.At(0, 0).Float() != 1 {
		t.Error("Clone must deep-copy")
	}
}

func TestMaxAbsError(t *testing.T) {
	d := mat.New(1, 2, []float64{1.0, 2.0})
	fm := FromDenseQ(d, Q20, nil)
	ref := mat.New(1, 2, []float64{1.5, 2.0})
	if got := fm.MaxAbsError(ref); got != 0.5 {
		t.Errorf("MaxAbsError = %v", got)
	}
}

func TestQuantizationErrorBound(t *testing.T) {
	r := rng.New(2)
	d := mat.Zeros(8, 8)
	r.FillUniform(d.RawData(), -10, 10)
	fm := FromDenseQ(d, Q20, nil)
	if e := fm.MaxAbsError(d); e > 1.0/float64(One) {
		t.Errorf("quantization error %v exceeds one LSB", e)
	}
}

func TestNegativeDimsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMatrixQ(-1, 2, Q20)
}
