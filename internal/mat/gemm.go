package mat

import (
	"fmt"
	"runtime"
	"sync"
)

// parallelThreshold is the rows*inner*cols work estimate above which GEMM
// fans out across goroutines. Below it, the goroutine and synchronization
// overhead outweighs the parallel speedup for the small matrices OS-ELM uses.
const parallelThreshold = 256 * 256 * 64

// gemmBlock is the cache-blocking tile edge. 64 float64 = 512 bytes per row
// tile, comfortably inside L1 for three operand tiles.
const gemmBlock = 64

// gemmSerial computes dst[rowLo:rowHi] = a[rowLo:rowHi]·b using i-k-j loop
// order (streaming b rows) with k-blocking.
func gemmSerial(dst, a, b *Dense, rowLo, rowHi int) {
	n, p := a.cols, b.cols
	ad, bd, dd := a.data, b.data, dst.data
	for i := rowLo; i < rowHi; i++ {
		di := dd[i*p : (i+1)*p]
		for j := range di {
			di[j] = 0
		}
		for k0 := 0; k0 < n; k0 += gemmBlock {
			k1 := k0 + gemmBlock
			if k1 > n {
				k1 = n
			}
			for k := k0; k < k1; k++ {
				aik := ad[i*n+k]
				if aik == 0 {
					continue
				}
				bk := bd[k*p : (k+1)*p]
				for j, bv := range bk {
					di[j] += aik * bv
				}
			}
		}
	}
}

// gemmParallel splits dst rows across GOMAXPROCS workers.
func gemmParallel(dst, a, b *Dense) {
	workers := runtime.GOMAXPROCS(0)
	if workers > a.rows {
		workers = a.rows
	}
	if workers <= 1 {
		gemmSerial(dst, a, b, 0, a.rows)
		return
	}
	var wg sync.WaitGroup
	chunk := (a.rows + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > a.rows {
			hi = a.rows
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			gemmSerial(dst, a, b, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// MulSerial forces the serial GEMM path regardless of size. It is used by
// the timing harness, where deterministic single-core operation counts are
// needed to model the Cortex-A9.
func MulSerial(a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic(ErrShape)
	}
	out := Zeros(a.rows, b.cols)
	gemmSerial(out, a, b, 0, a.rows)
	return out
}

// MulSerialInto computes dst = a·b through the serial GEMM kernel
// regardless of size, without allocating. dst must be preallocated with
// shape a.Rows()×b.Cols() and must not alias a or b. gemmSerial
// accumulates each output row over the inner dimension in ascending order
// with the same zero-operand skip as VecMulInto, so row i of dst is
// bit-identical to a per-row VecMulInto; elm.HiddenBatchInto and the
// standard-output-model batch path of qnet.Evaluator rely on that.
func MulSerialInto(dst, a, b *Dense) {
	if a.cols != b.rows || dst.rows != a.rows || dst.cols != b.cols {
		panic(fmt.Errorf("%w: MulSerialInto %dx%d = %dx%d · %dx%d",
			ErrShape, dst.rows, dst.cols, a.rows, a.cols, b.rows, b.cols))
	}
	gemmSerial(dst, a, b, 0, a.rows)
}

// MulParallel forces the parallel GEMM path regardless of size.
func MulParallel(a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic(ErrShape)
	}
	out := Zeros(a.rows, b.cols)
	gemmParallel(out, a, b)
	return out
}
