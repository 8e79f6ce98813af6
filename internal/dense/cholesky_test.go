package dense

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randSPD returns a random symmetric positive definite n x n matrix.
func randSPD(n int, rng *rand.Rand) *Matrix {
	a := Random(n+3, n, rng) // more rows than cols => full column rank a.s.
	g := Gram(a, 1)
	return AddScaledIdentity(g, 0.1)
}

func TestCholeskyReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{1, 2, 5, 20, 50} {
		m := randSPD(n, rng)
		ch, err := NewCholesky(m)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if d := MaxAbsDiff(ch.Reconstruct(), m); d > 1e-9 {
			t.Fatalf("n=%d: reconstruction error %v", n, d)
		}
	}
}

func TestCholeskyLowerTriangular(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	m := randSPD(6, rng)
	ch, err := NewCholesky(m)
	if err != nil {
		t.Fatal(err)
	}
	l := ch.L()
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			if l.At(i, j) != 0 {
				t.Fatalf("upper triangle non-zero at (%d,%d)", i, j)
			}
		}
		if l.At(i, i) <= 0 {
			t.Fatalf("non-positive diagonal at %d", i)
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := NewCholesky(m); err == nil {
		t.Fatal("expected ErrNotPositiveDefinite")
	}
	if _, err := NewCholesky(New(3, 3)); err == nil {
		t.Fatal("zero matrix must be rejected")
	}
	if _, err := NewCholesky(New(2, 3)); err == nil {
		t.Fatal("non-square must be rejected")
	}
}

func TestCholeskyJitterRecovers(t *testing.T) {
	// Singular PSD matrix: rank-1 Gram. Jitter must make it factorizable.
	a := FromRows([][]float64{{1, 2, 3}})
	g := Gram(a, 1) // rank 1, 3x3
	ch, jitter, err := NewCholeskyJitter(g, 0, 30)
	if err != nil {
		t.Fatal(err)
	}
	if jitter <= 0 {
		t.Fatalf("expected positive jitter, got %v", jitter)
	}
	if ch == nil {
		t.Fatal("nil factorization")
	}
}

func TestCholeskyJitterNoopOnSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m := randSPD(4, rng)
	_, jitter, err := NewCholeskyJitter(m, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if jitter != 0 {
		t.Fatalf("SPD input must need no jitter, got %v", jitter)
	}
}

func TestSolveVecKnownSystem(t *testing.T) {
	// M = [[4,2],[2,3]], solve M x = b with known answer.
	m := FromRows([][]float64{{4, 2}, {2, 3}})
	ch, err := NewCholesky(m)
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{10, 9} // x = (1.5, 2)
	ch.SolveVec(b)
	if math.Abs(b[0]-1.5) > 1e-12 || math.Abs(b[1]-2) > 1e-12 {
		t.Fatalf("SolveVec = %v", b)
	}
}

func TestSolveVecResidualProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		m := randSPD(n, rng)
		ch, err := NewCholesky(m)
		if err != nil {
			return false
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		// b = M x, solve, must recover x.
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				b[i] += m.At(i, j) * x[j]
			}
		}
		ch.SolveVec(b)
		for i := range x {
			if math.Abs(b[i]-x[i]) > 1e-7*(1+math.Abs(x[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveRowsMatchesPerRowSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	m := randSPD(5, rng)
	ch, err := NewCholesky(m)
	if err != nil {
		t.Fatal(err)
	}
	b := Random(40, 5, rng)
	want := b.Clone()
	for i := 0; i < want.Rows; i++ {
		ch.SolveVec(want.Row(i))
	}
	got := b.Clone()
	ch.SolveRows(got)
	if MaxAbsDiff(got, want) > 1e-12 {
		t.Fatal("SolveRows differs from per-row SolveVec")
	}
}

func TestSolveRowsOnRowBlockView(t *testing.T) {
	// Solving a block view must update only that block of the parent.
	rng := rand.New(rand.NewSource(25))
	m := randSPD(4, rng)
	ch, err := NewCholesky(m)
	if err != nil {
		t.Fatal(err)
	}
	full := Random(10, 4, rng)
	orig := full.Clone()
	ch.SolveRows(full.RowBlock(3, 7))
	for i := 0; i < 10; i++ {
		inside := i >= 3 && i < 7
		same := true
		for j := 0; j < 4; j++ {
			if full.At(i, j) != orig.At(i, j) {
				same = false
			}
		}
		if inside && same {
			t.Fatalf("row %d inside block unchanged", i)
		}
		if !inside && !same {
			t.Fatalf("row %d outside block modified", i)
		}
	}
}

func TestSolveVecLengthPanics(t *testing.T) {
	m := FromRows([][]float64{{2}})
	ch, _ := NewCholesky(m)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ch.SolveVec([]float64{1, 2})
}

// laneInput returns a rows x f right-hand side with a stride of f+3, its
// padding set to NaN so a solve that reads or writes it shows. Some entries
// are +0 and −0 so signed-zero handling is pinned too.
func laneInput(rows, f int, rng *rand.Rand) *Matrix {
	b := &Matrix{Rows: rows, Cols: f, Stride: f + 3, Data: make([]float64, rows*(f+3))}
	for i := range b.Data {
		b.Data[i] = math.NaN()
	}
	for i := 0; i < rows; i++ {
		row := b.Row(i)
		for j := range row {
			switch rng.Intn(10) {
			case 0:
				row[j] = 0
			case 1:
				row[j] = math.Copysign(0, -1)
			default:
				row[j] = rng.NormFloat64() * 10
			}
		}
	}
	return b
}

// copyStrided copies m with its stride and padding.
func copyStrided(m *Matrix) *Matrix {
	return &Matrix{Rows: m.Rows, Cols: m.Cols, Stride: m.Stride, Data: append([]float64(nil), m.Data...)}
}

// sameBits reports the first element where got and want differ in their
// bits, including the stride padding.
func sameBits(got, want *Matrix) (int, bool) {
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			return i, false
		}
	}
	return 0, true
}

// The row-lane solve must equal per-row SolveVec bit for bit at every rank
// and panel size, with or without caller scratch, on strided views, and
// below the crossover as well as above it (solveLanes is called directly
// for that, so the crossover can move without losing the check).
func TestSolveRowsBitwiseMatchesSolveVec(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for f := 1; f <= 70; f++ {
		ch, err := NewCholesky(randSPD(f, rng))
		if err != nil {
			t.Fatal(err)
		}
		dirty := make([]float64, f*solvePanel)
		for rows := 1; rows <= 70; rows++ {
			b := laneInput(rows, f, rng)
			want := copyStrided(b)
			for i := 0; i < rows; i++ {
				ch.SolveVec(want.Row(i))
			}
			for i := range dirty {
				dirty[i] = math.Inf(1)
			}
			for _, tc := range []struct {
				name  string
				solve func(*Matrix)
			}{
				{"alloc", func(m *Matrix) { ch.SolveRows(m) }},
				{"scratch", func(m *Matrix) { ch.SolveRows(m, dirty) }},
				{"lanes", func(m *Matrix) {
					for lo := 0; lo < rows; lo += solvePanel {
						hi := min(lo+solvePanel, rows)
						ch.solveLanes(m, lo, hi, dirty[:f*(hi-lo)])
					}
				}},
			} {
				got := copyStrided(b)
				tc.solve(got)
				if k, ok := sameBits(got, want); !ok {
					t.Fatalf("F=%d rows=%d %s: element %d is %v, SolveVec gives %v",
						f, rows, tc.name, k, got.Data[k], want.Data[k])
				}
			}
		}
	}
}

// The transposed tile must not leak between views: solving a RowBlock of a
// strided parent leaves every other row, and the padding, as it was.
func TestSolveRowsStridedRowBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	const f = 12
	ch, err := NewCholesky(randSPD(f, rng))
	if err != nil {
		t.Fatal(err)
	}
	full := laneInput(100, f, rng)
	want := copyStrided(full)
	for i := 10; i < 90; i++ {
		ch.SolveVec(want.Row(i))
	}
	ch.SolveRows(full.RowBlock(10, 90))
	if k, ok := sameBits(full, want); !ok {
		t.Fatalf("element %d is %v, want %v", k, full.Data[k], want.Data[k])
	}
}

// BenchmarkSolveRows times one panel solved across lanes against the same
// rows through SolveVec, the two sides of SolveRows' crossover
// (solveLaneMin).
func BenchmarkSolveRows(b *testing.B) {
	for _, f := range []int{10, 25, 50} {
		rng := rand.New(rand.NewSource(int64(f)))
		ch, err := NewCholesky(randSPD(f, rng))
		if err != nil {
			b.Fatal(err)
		}
		tile := make([]float64, f*solvePanel)
		for _, rows := range []int{1, 2, 4, 6, 8, 12, 16, 32, 50, 64} {
			src := Random(rows, f, rng)
			work := src.Clone()
			b.Run(fmt.Sprintf("F=%d/rows=%d/lanes", f, rows), func(b *testing.B) {
				for it := 0; it < b.N; it++ {
					copy(work.Data, src.Data)
					ch.solveLanes(work, 0, rows, tile[:f*rows])
				}
			})
			b.Run(fmt.Sprintf("F=%d/rows=%d/vec", f, rows), func(b *testing.B) {
				for it := 0; it < b.N; it++ {
					copy(work.Data, src.Data)
					for i := 0; i < rows; i++ {
						ch.SolveVec(work.Row(i))
					}
				}
			})
		}
	}
}
