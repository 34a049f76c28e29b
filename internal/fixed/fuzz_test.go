package fixed

import (
	"math"
	"testing"
)

// Fuzz targets run their seed corpus under plain `go test`, giving cheap
// structured-random coverage of the saturating arithmetic that the FPGA
// simulator's correctness rests on.

func FuzzAddProperties(f *testing.F) {
	f.Add(int32(0), int32(0))
	f.Add(int32(1<<20), int32(-1<<20))
	f.Add(int32(math.MaxInt32), int32(math.MaxInt32))
	f.Add(int32(math.MinInt32), int32(math.MinInt32))
	f.Add(int32(123456), int32(-654321))
	f.Fuzz(func(t *testing.T, a, b int32) {
		x, y := Fixed(a), Fixed(b)
		sum := Add(x, y)
		// Commutativity.
		if sum != Add(y, x) {
			t.Fatal("Add not commutative")
		}
		// Saturation bounds.
		exact := int64(a) + int64(b)
		switch {
		case exact > int64(Max):
			if sum != Fixed(Max) {
				t.Fatalf("overflow must saturate: %d + %d = %d", a, b, sum)
			}
		case exact < int64(Min):
			if sum != Fixed(Min) {
				t.Fatalf("underflow must saturate: %d + %d = %d", a, b, sum)
			}
		default:
			if int64(sum) != exact {
				t.Fatalf("in-range Add wrong: %d + %d = %d", a, b, sum)
			}
		}
		// Sub is Add of the negation (away from the Min edge case).
		if b != math.MinInt32 && Sub(x, y) != Add(x, -y) {
			t.Fatal("Sub != Add of the negation")
		}
	})
}

func FuzzMulAccuracy(f *testing.F) {
	f.Add(int32(1<<20), int32(1<<20))
	f.Add(int32(-1<<20), int32(3<<20))
	f.Add(int32(1), int32(1))
	f.Add(int32(-1), int32(1<<30))
	f.Fuzz(func(t *testing.T, a, b int32) {
		x, y := Fixed(a), Fixed(b)
		got := Mul(x, y)
		exact := x.Float() * y.Float()
		switch {
		case exact >= Fixed(Max).Float():
			if got != Fixed(Max) {
				t.Fatalf("Mul(%v, %v) must saturate high, got %v", x, y, got)
			}
		case exact <= Fixed(Min).Float():
			if got != Fixed(Min) {
				t.Fatalf("Mul(%v, %v) must saturate low, got %v", x, y, got)
			}
		default:
			// Within one LSB of the exact product.
			if math.Abs(got.Float()-exact) > 1.0/float64(One) {
				t.Fatalf("Mul(%v, %v) = %v, exact %v", x, y, got, exact)
			}
		}
	})
}

func FuzzDivAccuracy(f *testing.F) {
	f.Add(int32(6<<20), int32(3<<20))
	f.Add(int32(-1<<20), int32(7))
	f.Add(int32(1<<20), int32(0))
	f.Fuzz(func(t *testing.T, a, b int32) {
		x, y := Fixed(a), Fixed(b)
		got := Div(x, y)
		if y == 0 {
			want := Fixed(Max)
			if x < 0 {
				want = Fixed(Min)
			}
			if got != want {
				t.Fatalf("Div by zero = %v", got)
			}
			return
		}
		exact := x.Float() / y.Float()
		switch {
		case exact >= Fixed(Max).Float():
			if got != Fixed(Max) {
				t.Fatalf("Div must saturate high")
			}
		case exact <= Fixed(Min).Float():
			if got != Fixed(Min) {
				t.Fatalf("Div must saturate low")
			}
		default:
			if math.Abs(got.Float()-exact) > 1.5/float64(One) {
				t.Fatalf("Div(%v, %v) = %v, exact %v", x, y, got, exact)
			}
		}
	})
}

func FuzzClampReLU(f *testing.F) {
	f.Add(int32(5 << 20))
	f.Add(int32(-5 << 20))
	f.Add(int32(0))
	f.Fuzz(func(t *testing.T, a int32) {
		x := Fixed(a)
		r := ReLU(x)
		if r < 0 {
			t.Fatalf("ReLU negative: %v", r)
		}
		if x > 0 && r != x {
			t.Fatal("ReLU must pass positives")
		}
	})
}
