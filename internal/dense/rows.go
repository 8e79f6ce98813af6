package dense

import "fmt"

// Row primitives: the elementwise rank-length updates every MTTKRP kernel
// makes once per non-zero or tree node. On amd64 CPUs with AVX2 they run as
// vector assembly (rows_amd64.s); everywhere else, and under the purego build
// tag, they run the Go loops below.
//
// The vector code multiplies and adds with separate instructions, never a
// fused multiply-add, so each element is rounded exactly as the Go loop
// rounds it: results are bitwise identical across the assembly and purego
// builds. NaN payloads are the one exception, since Go leaves them
// unspecified. None of the primitives is a reduction, so no sum is
// reordered.

// AxpyRow computes dst[i] += alpha·x[i] for i < len(dst). x must be at least
// as long as dst. With alpha == 1 it is an exact elementwise sum.
func AxpyRow(dst []float64, alpha float64, x []float64) {
	axpyRow(dst, alpha, x[:len(dst)])
}

// MulAddRow computes dst[i] += a[i]·b[i] for i < len(dst). a and b must be
// at least as long as dst.
func MulAddRow(dst, a, b []float64) {
	mulAddRow(dst, a[:len(dst)], b[:len(dst)])
}

// ScaledMulAddRow computes dst[i] += (alpha·a[i])·b[i] for i < len(dst),
// rounding the product left to right. a and b must be at least as long as
// dst.
func ScaledMulAddRow(dst []float64, alpha float64, a, b []float64) {
	scaledMulAddRow(dst, alpha, a[:len(dst)], b[:len(dst)])
}

// ScaledMulAddRows applies ScaledMulAddRow to a batch of n-element rows
// gathered from flat buffers, in order of k:
//
//	dst[do[k]:][:n] += (vals[k]·a[ao[k]:][:n]) ⊙ b[bo[k]:][:n]
//
// Rows of dst may repeat; a repeated row accumulates in order, exactly as
// the same ScaledMulAddRow calls would. do, ao and bo must be at least as
// long as vals. An offset that puts a row outside its buffer panics; rows
// before it have been applied. One call per batch instead of one per row
// keeps a caller's per-row loop free of calls, so its state stays in
// registers, and the offset checks run inside the kernel.
func ScaledMulAddRows(n int, dst []float64, do []int, vals []float64, a []float64, ao []int, b []float64, bo []int) {
	if len(vals) == 0 {
		return
	}
	do, ao, bo = do[:len(vals)], ao[:len(vals)], bo[:len(vals)]
	if n < 0 || n > min(len(dst), len(a), len(b)) {
		panic(fmt.Sprintf("dense: ScaledMulAddRows: row length %d does not fit its buffers", n))
	}
	if k := scaledMulAddRows(n, dst, do, vals, a, ao, b, bo, len(dst)-n, len(a)-n, len(b)-n); k >= 0 {
		panic(fmt.Sprintf("dense: ScaledMulAddRows: row %d (offsets %d, %d, %d, length %d) lies outside its buffers",
			k, do[k], ao[k], bo[k], n))
	}
}

// The Go loops below are the purego and non-amd64 implementations, the
// amd64 fallback for short rows and CPUs without AVX2, and the reference the
// tests hold the assembly to.

// axpyRowGo is unrolled by four: the one-element loop ran up to 40% slower
// whenever a build happened to place it across a 64-byte instruction
// boundary, and the unrolled body runs at the well-placed speed at either
// placement. Each element still gets exactly one multiply and one add.
func axpyRowGo(dst []float64, alpha float64, x []float64) {
	x = x[:len(dst)]
	j := 0
	for ; j+4 <= len(dst); j += 4 {
		dst[j] += alpha * x[j]
		dst[j+1] += alpha * x[j+1]
		dst[j+2] += alpha * x[j+2]
		dst[j+3] += alpha * x[j+3]
	}
	for ; j < len(dst); j++ {
		dst[j] += alpha * x[j]
	}
}

func mulAddRowGo(dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] += a[i] * b[i]
	}
}

func scaledMulAddRowGo(dst []float64, alpha float64, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] += alpha * a[i] * b[i]
	}
}

// scaledMulAddRowsGo applies the rows in order and returns the first k whose
// offsets exceed their limits, before touching that row, or -1.
func scaledMulAddRowsGo(n int, dst []float64, do []int, vals []float64, a []float64, ao []int, b []float64, bo []int, dstLim, aLim, bLim int) int {
	for k, v := range vals {
		if uint(do[k]) > uint(dstLim) || uint(ao[k]) > uint(aLim) || uint(bo[k]) > uint(bLim) {
			return k
		}
		scaledMulAddRowGo(dst[do[k]:do[k]+n], v, a[ao[k]:ao[k]+n], b[bo[k]:bo[k]+n])
	}
	return -1
}
