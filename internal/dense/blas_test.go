package dense

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"aoadmm/internal/par"
)

// naiveGram computes AᵀA by definition.
func naiveGram(a *Matrix) *Matrix {
	return MatMul(a.Transpose(), a)
}

// gramLoop is Gram with its accumulation written as a scalar loop, the form
// Gram had before it went through AxpyRow.
func gramLoop(a *Matrix, nThreads int) *Matrix {
	f := a.Cols
	nThreads = par.Threads(nThreads)
	partials := make([]*Matrix, nThreads)
	par.Static(a.Rows, nThreads, func(tid, begin, end int) {
		acc := New(f, f)
		for i := begin; i < end; i++ {
			row := a.Row(i)
			for p := 0; p < f; p++ {
				rp := row[p]
				if rp == 0 {
					continue
				}
				accRow := acc.Row(p)
				for q := p; q < f; q++ {
					accRow[q] += rp * row[q]
				}
			}
		}
		partials[tid] = acc
	})
	out := New(f, f)
	for _, p := range partials {
		if p == nil {
			continue
		}
		for i := range out.Data {
			out.Data[i] += p.Data[i]
		}
	}
	for p := 0; p < f; p++ {
		for q := p + 1; q < f; q++ {
			out.Set(q, p, out.At(p, q))
		}
	}
	return out
}

// Gram through AxpyRow must equal the scalar loop bit for bit, also where
// zeros, infinities and NaNs meet: a zero a_ip skips row p, so an Inf
// elsewhere in row i must not turn that row's sums into NaN.
func TestGramBitwiseMatchesScalarLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for f := 1; f <= 70; f++ {
		// One row in eight carries a NaN or an Inf, so most sums stay finite
		// and the rest show how the specials spread.
		a := New(2*f+7, f)
		for i := 0; i < a.Rows; i++ {
			row := a.Row(i)
			for j := range row {
				switch rng.Intn(10) {
				case 0:
					row[j] = 0
				case 1:
					row[j] = math.Copysign(0, -1)
				default:
					row[j] = rng.NormFloat64()
				}
			}
			if rng.Intn(8) == 0 {
				row[rng.Intn(f)] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
			}
		}
		for _, threads := range []int{1, 2} {
			got, want := Gram(a, threads), gramLoop(a, threads)
			for i := range want.Data {
				if !sameRowBits(got.Data[i], want.Data[i]) {
					t.Fatalf("F=%d threads=%d: element %d is %v, scalar loop gives %v", f, threads, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

func TestGramMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, shape := range [][2]int{{1, 1}, {5, 3}, {100, 8}, {257, 16}} {
		a := Random(shape[0], shape[1], rng)
		for _, p := range []int{1, 2, 4} {
			got := Gram(a, p)
			want := naiveGram(a)
			if MaxAbsDiff(got, want) > 1e-9 {
				t.Fatalf("Gram mismatch for %v threads=%d: %v", shape, p, MaxAbsDiff(got, want))
			}
		}
	}
}

func TestGramSymmetric(t *testing.T) {
	a := Random(64, 7, rand.New(rand.NewSource(12)))
	g := Gram(a, 3)
	for i := 0; i < 7; i++ {
		for j := 0; j < 7; j++ {
			if g.At(i, j) != g.At(j, i) {
				t.Fatalf("Gram not symmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestGramPSDProperty(t *testing.T) {
	// Property: xᵀ(AᵀA)x >= 0 for all x.
	rng := rand.New(rand.NewSource(13))
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := Random(1+r.Intn(40), 1+r.Intn(6), r)
		g := Gram(a, 2)
		x := make([]float64, g.Cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		var q float64
		for i := 0; i < g.Rows; i++ {
			for j := 0; j < g.Cols; j++ {
				q += x[i] * g.At(i, j) * x[j]
			}
		}
		return q >= -1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHadamard(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	dst := New(2, 2)
	Hadamard(dst, a, b)
	want := FromRows([][]float64{{5, 12}, {21, 32}})
	if !Equal(dst, want, 0) {
		t.Fatalf("Hadamard = %v", dst)
	}
	// Aliasing dst with a must work.
	Hadamard(a, a, b)
	if !Equal(a, want, 0) {
		t.Fatalf("aliased Hadamard = %v", a)
	}
}

func TestHadamardAll(t *testing.T) {
	a := FromRows([][]float64{{2}})
	b := FromRows([][]float64{{3}})
	c := FromRows([][]float64{{5}})
	out := HadamardAll(a, b, c)
	if out.At(0, 0) != 30 {
		t.Fatalf("HadamardAll = %v", out.At(0, 0))
	}
	if a.At(0, 0) != 2 {
		t.Fatal("HadamardAll must not mutate inputs")
	}
	single := HadamardAll(a)
	single.Set(0, 0, -1)
	if a.At(0, 0) != 2 {
		t.Fatal("HadamardAll(single) must clone")
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	got := MatMul(a, b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if !Equal(got, want, 1e-12) {
		t.Fatalf("MatMul = %v", got)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := Random(6, 6, rng)
	if !Equal(MatMul(a, Eye(6)), a, 1e-12) {
		t.Fatal("A·I != A")
	}
	if !Equal(MatMul(Eye(6), a), a, 1e-12) {
		t.Fatal("I·A != A")
	}
}

func TestMatMulAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	a := Random(4, 5, rng)
	b := Random(5, 3, rng)
	c := Random(3, 6, rng)
	left := MatMul(MatMul(a, b), c)
	right := MatMul(a, MatMul(b, c))
	if MaxAbsDiff(left, right) > 1e-10 {
		t.Fatalf("associativity violated: %v", MaxAbsDiff(left, right))
	}
}

func TestAddScaledIdentityAndTrace(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	out := AddScaledIdentity(m, 10)
	if out.At(0, 0) != 11 || out.At(1, 1) != 14 || out.At(0, 1) != 2 {
		t.Fatalf("AddScaledIdentity = %v", out)
	}
	if m.At(0, 0) != 1 {
		t.Fatal("input must not be mutated")
	}
	if Trace(m) != 5 {
		t.Fatalf("Trace = %v", Trace(m))
	}
}

func TestAXPYScaleDot(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{10, 20}, {30, 40}})
	AXPY(a, 0.5, b)
	want := FromRows([][]float64{{6, 12}, {18, 24}})
	if !Equal(a, want, 1e-12) {
		t.Fatalf("AXPY = %v", a)
	}
	Scale(a, 2)
	if a.At(1, 1) != 48 {
		t.Fatalf("Scale = %v", a)
	}
	x := FromRows([][]float64{{1, 2}, {3, 4}})
	if d := Dot(x, x); d != 30 {
		t.Fatalf("Dot = %v", d)
	}
}

func TestDotMatchesFrobSq(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := Random(1+r.Intn(20), 1+r.Intn(10), rng)
		return math.Abs(Dot(m, m)-FrobSq(m)) < 1e-10
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestGramOnRowBlockView(t *testing.T) {
	// Gram must honor stride: a row-block view of a wider matrix.
	rng := rand.New(rand.NewSource(17))
	m := Random(20, 5, rng)
	blk := m.RowBlock(4, 16)
	got := Gram(blk, 2)
	want := naiveGram(blk.Clone())
	if MaxAbsDiff(got, want) > 1e-10 {
		t.Fatalf("Gram on view mismatch: %v", MaxAbsDiff(got, want))
	}
}
