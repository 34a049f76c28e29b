package fixed

import (
	"encoding/binary"
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
		sum := plain.Add(x, y)
		// Commutativity.
		if sum != plain.Add(y, x) {
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
		if b != math.MinInt32 && plain.Sub(x, y) != plain.Add(x, -y) {
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
		got := Q20.Mul(x, y)
		exact := x.Float() * y.Float()
		switch {
		case exact >= Fixed(Max).Float():
			if got != Fixed(Max) {
				t.Fatalf("Q20.Mul(%v, %v) must saturate high, got %v", x, y, got)
			}
		case exact <= Fixed(Min).Float():
			if got != Fixed(Min) {
				t.Fatalf("Q20.Mul(%v, %v) must saturate low, got %v", x, y, got)
			}
		default:
			// Within one LSB of the exact product.
			if math.Abs(got.Float()-exact) > 1.0/float64(One) {
				t.Fatalf("Q20.Mul(%v, %v) = %v, exact %v", x, y, got, exact)
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
		got := Q20.Div(x, y)
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
				t.Fatalf("Q20.Div(%v, %v) = %v, exact %v", x, y, got, exact)
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

// FuzzRowKernels checks each row kernel against its element-wise
// reference — MulQ then Add (or Sub), one element at a time, in index
// order — in every format from Q1 to Q30. With a nil Acct the results
// must match bit for bit; with a non-nil one the results and every
// counter (Ops, Saturations and QuantErrAbs, accumulated in the same
// order) must match exactly. data packs the rows as little-endian int32
// (x[i], y[i]) pairs.
func FuzzRowKernels(f *testing.F) {
	f.Add(uint8(20), int32(1<<20), int32(-3<<19), []byte("\x00\x00\x10\x00\x00\x00\x08\x00\xff\xff\xef\xff\x01\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, frac uint8, acc, s int32, data []byte) {
		q := QFormat{Frac: 1 + uint(frac)%MaxFracBits}
		n := len(data) / 8
		x, y := make([]Fixed, n), make([]Fixed, n)
		for i := range x {
			x[i] = Fixed(binary.LittleEndian.Uint32(data[8*i:]))
			y[i] = Fixed(binary.LittleEndian.Uint32(data[8*i+4:]))
		}
		for _, on := range []bool{false, true} {
			var got, want *Acct
			if on {
				got, want = &Acct{}, &Acct{}
			}
			check := func(kernel string) {
				t.Helper()
				if on && *got != *want {
					t.Fatalf("%s %s: counters %+v, element-wise %+v", q, kernel, *got, *want)
				}
			}

			ref := Fixed(acc)
			for i := range x {
				ref = want.Add(ref, want.MulQ(q, x[i], y[i]))
			}
			if r := got.Dot(q, Fixed(acc), x, y); r != ref {
				t.Fatalf("%s Dot = %d, element-wise %d", q, r, ref)
			}
			check("Dot")

			for _, sub := range []bool{false, true} {
				dst := append([]Fixed(nil), y...)
				refDst := append([]Fixed(nil), y...)
				kernel := "AddScaled"
				if sub {
					kernel = "SubScaled"
					got.SubScaled(q, dst, Fixed(s), x)
				} else {
					got.AddScaled(q, dst, Fixed(s), x)
				}
				for i := range refDst {
					p := want.MulQ(q, Fixed(s), x[i])
					if sub {
						refDst[i] = want.Sub(refDst[i], p)
					} else {
						refDst[i] = want.Add(refDst[i], p)
					}
				}
				for i := range dst {
					if dst[i] != refDst[i] {
						t.Fatalf("%s %s[%d] = %d, element-wise %d", q, kernel, i, dst[i], refDst[i])
					}
				}
				check(kernel)
			}
		}
	})
}
