package dense

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// rowImpl is one implementation of a row primitive under the common
// signature dst, alpha, a, b (unused operands are ignored).
type rowImpl struct {
	name string
	fn   func(dst []float64, alpha float64, a, b []float64)
}

// rowPrim pairs a primitive's implementations with its one-element Go
// reference loop, which every implementation must match bit for bit.
type rowPrim struct {
	name  string
	ref   func(dst []float64, alpha float64, a, b []float64)
	impls []rowImpl
}

func rowPrims() []rowPrim {
	return []rowPrim{
		{
			name: "AxpyRow",
			ref: func(dst []float64, alpha float64, a, _ []float64) {
				for i := range dst {
					dst[i] += alpha * a[i]
				}
			},
			impls: []rowImpl{
				{"exported", func(d []float64, al float64, a, _ []float64) { AxpyRow(d, al, a) }},
				{"go", func(d []float64, al float64, a, _ []float64) { axpyRowGo(d, al, a) }},
			},
		},
		{
			name: "MulAddRow",
			ref: func(dst []float64, _ float64, a, b []float64) {
				for i := range dst {
					dst[i] += a[i] * b[i]
				}
			},
			impls: []rowImpl{
				{"exported", func(d []float64, _ float64, a, b []float64) { MulAddRow(d, a, b) }},
				{"go", func(d []float64, _ float64, a, b []float64) { mulAddRowGo(d, a, b) }},
			},
		},
		{
			name: "ScaledMulAddRow",
			ref: func(dst []float64, alpha float64, a, b []float64) {
				for i := range dst {
					dst[i] += alpha * a[i] * b[i]
				}
			},
			impls: []rowImpl{
				{"exported", func(d []float64, al float64, a, b []float64) { ScaledMulAddRow(d, al, a, b) }},
				{"go", func(d []float64, al float64, a, b []float64) { scaledMulAddRowGo(d, al, a, b) }},
			},
		},
	}
}

// rowSpecials are the IEEE edge values the bit-identity checks mix in:
// signed zeros and infinities, NaN, subnormals, the normal range's ends.
var rowSpecials = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, -3.75,
	math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1070,
	0x1p-1022, -0x1p-1023, math.MaxFloat64, -math.MaxFloat64, 0x1p600,
}

func rowValue(rng *rand.Rand) float64 {
	if rng.Intn(4) == 0 {
		return rowSpecials[rng.Intn(len(rowSpecials))]
	}
	return rng.NormFloat64()
}

// sameRowBits reports whether a and b are bitwise equal, treating any two
// NaNs as equal: Go leaves NaN payloads unspecified, so the reference loop's
// own payload depends on register allocation.
func sameRowBits(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// checkRowPrim runs impl and the reference on copies of dst and compares
// every element bitwise, including a guard tail past len(dst) that neither
// may write.
func checkRowPrim(t *testing.T, p rowPrim, impl rowImpl, dst []float64, alpha float64, a, b []float64) {
	t.Helper()
	const guard = 5
	n := len(dst)
	got := append(append([]float64(nil), dst...), make([]float64, guard)...)
	want := append(append([]float64(nil), dst...), make([]float64, guard)...)
	for i := n; i < n+guard; i++ {
		got[i], want[i] = -7, -7
	}
	impl.fn(got[:n], alpha, a, b)
	p.ref(want[:n], alpha, a, b)
	for i := range want {
		if !sameRowBits(got[i], want[i]) {
			t.Fatalf("%s/%s len %d alpha %v: element %d = %v (%#x), reference %v (%#x)",
				p.name, impl.name, n, alpha, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestRowPrimitivesBitIdentical checks every implementation of every row
// primitive against its reference loop at lengths 0–70 (every vector-loop
// and tail split), with operands at odd offsets into their backing arrays
// so vector loads are unaligned, over values mixed with IEEE edge cases.
func TestRowPrimitivesBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, p := range rowPrims() {
		for _, impl := range p.impls {
			for n := 0; n <= 70; n++ {
				for _, off := range [][3]int{{0, 0, 0}, {1, 3, 5}, {3, 1, 0}, {7, 0, 1}} {
					mk := func(o int) []float64 {
						s := make([]float64, n+o)
						for i := range s {
							s[i] = rowValue(rng)
						}
						return s[o:]
					}
					dst, a, b := mk(off[0]), mk(off[1]), mk(off[2])
					checkRowPrim(t, p, impl, dst, rowValue(rng), a, b)
				}
			}
		}
	}
}

// TestRowPrimitivesSpecialGrid crosses every pair of special values in a
// row long enough to reach the 16-wide vector loop.
func TestRowPrimitivesSpecialGrid(t *testing.T) {
	s := rowSpecials
	n := len(s) * len(s)
	dst, a, b := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range dst {
		dst[i] = s[i%len(s)]
		a[i] = s[i/len(s)]
		b[i] = s[(i*7)%len(s)]
	}
	for _, p := range rowPrims() {
		for _, impl := range p.impls {
			for _, alpha := range s {
				checkRowPrim(t, p, impl, dst, alpha, a, b)
			}
		}
	}
}

// refScaledMulAddRows is the per-row loop ScaledMulAddRows must match.
func refScaledMulAddRows(n int, dst []float64, do []int, vals, a []float64, ao []int, b []float64, bo []int) {
	for k, v := range vals {
		d, x, y := dst[do[k]:], a[ao[k]:], b[bo[k]:]
		for i := 0; i < n; i++ {
			d[i] += v * x[i] * y[i]
		}
	}
}

// checkRowsBatch runs ScaledMulAddRows and its Go loop on copies of dst and
// compares both bitwise with the reference.
func checkRowsBatch(t *testing.T, n int, dst []float64, do []int, vals, a []float64, ao []int, b []float64, bo []int) {
	t.Helper()
	want := append([]float64(nil), dst...)
	refScaledMulAddRows(n, want, do, vals, a, ao, b, bo)
	for _, impl := range []struct {
		name string
		fn   func(int, []float64, []int, []float64, []float64, []int, []float64, []int)
	}{{"exported", ScaledMulAddRows}, {"go", func(n int, dst []float64, do []int, vals, a []float64, ao []int, b []float64, bo []int) {
		if k := scaledMulAddRowsGo(n, dst, do, vals, a, ao, b, bo, len(dst)-n, len(a)-n, len(b)-n); k >= 0 {
			t.Fatalf("go loop rejected row %d", k)
		}
	}}} {
		got := append([]float64(nil), dst...)
		impl.fn(n, got, do, vals, a, ao, b, bo)
		for i := range want {
			if !sameRowBits(got[i], want[i]) {
				t.Fatalf("ScaledMulAddRows/%s n %d rows %d: element %d = %v (%#x), reference %v (%#x)",
					impl.name, n, len(vals), i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
}

// TestScaledMulAddRowsBitIdentical gathers batches of rows of every length
// 0–70 from random offsets, most of them odd so loads are unaligned, into
// destination rows that repeat, over values mixed with IEEE edge cases.
func TestScaledMulAddRowsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for n := 0; n <= 70; n++ {
		mk := func() []float64 {
			s := make([]float64, 3*n+50)
			for i := range s {
				s[i] = rowValue(rng)
			}
			return s
		}
		dst, a, b := mk(), mk(), mk()
		rows := 1 + rng.Intn(40)
		do, ao, bo := make([]int, rows), make([]int, rows), make([]int, rows)
		vals := make([]float64, rows)
		for k := range vals {
			do[k] = rng.Intn(4) * (n/2 + 3) // four destination rows, overlapping when n > 6
			ao[k] = rng.Intn(len(a) - n + 1)
			bo[k] = rng.Intn(len(b) - n + 1)
			vals[k] = rowValue(rng)
		}
		checkRowsBatch(t, n, dst, do, vals, a, ao, b, bo)
	}
}

// TestScaledMulAddRowsPanicsOutOfBounds pins that every offset is checked
// before the vector code touches memory.
func TestScaledMulAddRowsPanicsOutOfBounds(t *testing.T) {
	buf := make([]float64, 16)
	ok := []int{0, 8}
	vals := []float64{1, 2}
	for _, c := range []struct {
		name       string
		n          int
		do, ao, bo []int
	}{
		{"dst past the end", 8, []int{0, 9}, ok, ok},
		{"a negative", 8, ok, []int{-1, 0}, ok},
		{"b past the end", 8, ok, ok, []int{0, 16}},
		{"row longer than buffer", 17, []int{0, 0}, []int{0, 0}, []int{0, 0}},
		{"short offset slice", 8, ok, ok, []int{0}},
		{"negative length", -1, ok, ok, ok},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: ScaledMulAddRows did not panic", c.name)
				}
			}()
			ScaledMulAddRows(c.n, buf, c.do, vals, buf, c.ao, buf, c.bo)
		}()
	}
}

// TestRowPrimitivesPanicOnShortOperand pins the length contract: an operand
// shorter than dst is a bounds panic, never an out-of-range read.
func TestRowPrimitivesPanicOnShortOperand(t *testing.T) {
	long, short := make([]float64, 9), make([]float64, 8)
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"AxpyRow", func() { AxpyRow(long, 1, short) }},
		{"MulAddRow", func() { MulAddRow(long, long, short) }},
		{"ScaledMulAddRow", func() { ScaledMulAddRow(long, 1, short, long) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with a short operand did not panic", c.name)
				}
			}()
			c.fn()
		}()
	}
}

// TestRowPrimitivesNoAllocs pins that the primitives keep their operands on
// the caller's stack (the vector kernels are //go:noescape).
func TestRowPrimitivesNoAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(10, func() {
		var dst, a, b [24]float64
		AxpyRow(dst[:], 2, a[:])
		MulAddRow(dst[:], a[:], b[:])
		ScaledMulAddRow(dst[:], 2, a[:], b[:])
		offs, vals := [2]int{0, 8}, [2]float64{1, 2}
		ScaledMulAddRows(16, dst[:], offs[:], vals[:], a[:], offs[:], b[:], offs[:])
	})
	if allocs != 0 {
		t.Fatalf("row primitives allocate %v times per call set", allocs)
	}
}

// FuzzRowPrimitives checks bit-identity with the reference loops over
// arbitrary bit patterns: the input bytes become the float64s of dst, a and
// b (8 bytes each, a third of the values each), offset by up to three
// elements into their backing array, and a small ScaledMulAddRows batch
// gathers half-length rows from the same buffers.
func FuzzRowPrimitives(f *testing.F) {
	seed := make([]byte, 8*3*21)
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < len(seed); i += 8 {
		binary.LittleEndian.PutUint64(seed[i:], math.Float64bits(rowValue(rng)))
	}
	f.Add(seed, 1.5, uint8(1))
	f.Add(seed[:8*3*5], math.Inf(-1), uint8(2))
	f.Add([]byte{}, 0.0, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, alpha float64, off uint8) {
		vals := make([]float64, len(data)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		o := int(off % 4)
		n := len(vals) / 3
		if n < o {
			o = 0
		}
		dst, a, b := vals[o:n], vals[n+o:2*n], vals[2*n+o:3*n]
		for _, p := range rowPrims() {
			for _, impl := range p.impls {
				checkRowPrim(t, p, impl, dst, alpha, a, b)
			}
		}
		// Three half-length rows of the same buffers, two of them landing
		// on one destination row when off picks offset 0.
		r := len(dst) / 2
		last, mid := len(dst)-r, int(off)%(len(dst)-r+1)
		checkRowsBatch(t, r, dst, []int{0, last, mid}, []float64{alpha, -alpha, 0.5},
			a, []int{last, mid, 0}, b, []int{mid, 0, last})
	})
}

// gatheredRows builds the access pattern of a CSF leaf fiber: a factor
// matrix of nRows rows and a random sequence of row ids into it.
func gatheredRows(nRows, rank, nIDs int) (*Matrix, []int32, []float64) {
	rng := rand.New(rand.NewSource(22))
	m := Random(nRows, rank, rng)
	ids := make([]int32, nIDs)
	vals := make([]float64, nIDs)
	for i := range ids {
		ids[i] = int32(rng.Intn(nRows))
		vals[i] = rng.Float64()
	}
	return m, ids, vals
}

// BenchmarkRows times each primitive over 64k factor rows gathered the way
// a CSF leaf walk gathers them, with the vector kernels (impl=asm) and the
// Go loops (impl=go) in one run; their ratio is machine-portable. Without
// AVX2 or under purego both sub-benchmarks run the Go loops.
func BenchmarkRows(b *testing.B) {
	const nRows, nIDs = 4096, 1 << 16
	for _, rank := range []int{8, 25, 50} {
		m, ids, vals := gatheredRows(nRows, rank, nIDs)
		acc := make([]float64, rank)
		impls := []struct {
			name         string
			axpy         func([]float64, float64, []float64)
			mulAdd       func(dst, a, b []float64)
			scaledMulAdd func([]float64, float64, []float64, []float64)
		}{
			{"asm", AxpyRow, MulAddRow, ScaledMulAddRow},
			{"go", axpyRowGo, mulAddRowGo, scaledMulAddRowGo},
		}
		for _, impl := range impls {
			b.Run(fmt.Sprintf("op=axpy/rank=%d/impl=%s", rank, impl.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for k, id := range ids {
						impl.axpy(acc, vals[k], m.Row(int(id)))
					}
				}
			})
			b.Run(fmt.Sprintf("op=muladd/rank=%d/impl=%s", rank, impl.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for k, id := range ids {
						impl.mulAdd(acc, m.Row(int(id)), m.Row(int(ids[nIDs-1-k])))
					}
				}
			})
			b.Run(fmt.Sprintf("op=scaledmuladd/rank=%d/impl=%s", rank, impl.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for k, id := range ids {
						impl.scaledMulAdd(acc, vals[k], m.Row(int(id)), m.Row(int(ids[nIDs-1-k])))
					}
				}
			})
		}
	}
}
