//go:build !amd64 || purego

package dense

func axpyRow(dst []float64, alpha float64, x []float64) { axpyRowGo(dst, alpha, x) }

func mulAddRow(dst, a, b []float64) { mulAddRowGo(dst, a, b) }

func scaledMulAddRow(dst []float64, alpha float64, a, b []float64) {
	scaledMulAddRowGo(dst, alpha, a, b)
}

func scaledMulAddRows(n int, dst []float64, do []int, vals []float64, a []float64, ao []int, b []float64, bo []int, dstLim, aLim, bLim int) int {
	return scaledMulAddRowsGo(n, dst, do, vals, a, ao, b, bo, dstLim, aLim, bLim)
}
