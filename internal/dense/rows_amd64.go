//go:build amd64 && !purego

package dense

// useAVX2 reports whether the CPU and OS support AVX2, checked once. The
// assembly reads it.
var useAVX2 = hasAVX2()

// hasAVX2 checks CPUID for AVX and AVX2 and XGETBV for OS-saved YMM state.
func hasAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const xmmYmmState = 1<<1 | 1<<2
	if xcr0, _ := xgetbv(); xcr0&xmmYmmState != xmmYmmState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// The single-row kernels take the row length from dst, and every operand
// is exactly that long; scaledMulAddRows takes it from n and checks each
// offset against the given limit. Without AVX2, or for rows shorter than
// one vector, they jump to the Go loops.

//go:noescape
func axpyRow(dst []float64, alpha float64, x []float64)

//go:noescape
func mulAddRow(dst, a, b []float64)

//go:noescape
func scaledMulAddRow(dst []float64, alpha float64, a, b []float64)

//go:noescape
func scaledMulAddRows(n int, dst []float64, do []int, vals []float64, a []float64, ao []int, b []float64, bo []int, dstLim, aLim, bLim int) (bad int)
