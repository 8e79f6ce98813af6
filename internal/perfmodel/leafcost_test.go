package perfmodel

import "testing"

func TestDenseWinsAtHighDensity(t *testing.T) {
	m := DefaultLeafModel()
	p := LeafProfile{
		Rank: 50, ModeLength: 20000, Accesses: 400_000,
		Density: 0.9, DenseColumnShare: 0.5,
	}
	if got := m.Choose(p); got != StructDense {
		t.Fatalf("high density chose %v", got)
	}
}

func TestCSRWinsAtLowDensityLongMode(t *testing.T) {
	// The paper's Amazon regime: very sparse factor, very long mode.
	m := DefaultLeafModel()
	p := LeafProfile{
		Rank: 100, ModeLength: 2_000_000, Accesses: 1_700_000_000,
		Density: 0.03, DenseColumnShare: 0.5,
	}
	if got := m.Choose(p); got != StructCSR {
		c := m.Evaluate(p)
		t.Fatalf("Amazon regime chose %v (costs %+v)", got, c)
	}
}

func TestHybridWinsAtLowDensityShortMode(t *testing.T) {
	// The paper's Reddit regime: sparse factor, mode ~30x shorter than
	// Amazon's, non-zeros concentrated in a few dense columns.
	m := DefaultLeafModel()
	p := LeafProfile{
		Rank: 100, ModeLength: 510_000 / 8, Accesses: 95_000_000,
		Density: 0.01, DenseColumnShare: 0.6,
	}
	if got := m.Choose(p); got != StructHybrid {
		c := m.Evaluate(p)
		t.Fatalf("Reddit regime chose %v (costs %+v)", got, c)
	}
}

func TestDensityCrossoverMonotone(t *testing.T) {
	// Sweeping density upward must switch from a compressed structure to
	// DENSE exactly once.
	m := DefaultLeafModel()
	prevDense := false
	switches := 0
	for d := 0.01; d <= 1.0; d += 0.01 {
		p := LeafProfile{Rank: 50, ModeLength: 100_000, Accesses: 10_000_000, Density: d, DenseColumnShare: 0.5}
		isDense := m.Choose(p) == StructDense
		if isDense != prevDense {
			switches++
			prevDense = isDense
		}
	}
	if !prevDense {
		t.Fatal("fully dense factor must select DENSE")
	}
	if switches != 1 {
		t.Fatalf("expected exactly one crossover, got %d switches", switches)
	}
}

func TestModeLengthCrossoverHybridToCSR(t *testing.T) {
	// Holding everything fixed and growing the mode length must eventually
	// move the choice from CSR-H to CSR (the Reddit -> Amazon transition).
	m := DefaultLeafModel()
	sawHybrid, sawCSRAfterHybrid := false, false
	for rows := 10_000; rows <= 5_000_000; rows *= 2 {
		p := LeafProfile{Rank: 100, ModeLength: rows, Accesses: 100_000_000, Density: 0.02, DenseColumnShare: 0.6}
		switch m.Choose(p) {
		case StructHybrid:
			if sawCSRAfterHybrid {
				t.Fatalf("hybrid reappeared at rows=%d after CSR took over", rows)
			}
			sawHybrid = true
		case StructCSR:
			if sawHybrid {
				sawCSRAfterHybrid = true
			}
		}
	}
	if !sawHybrid || !sawCSRAfterHybrid {
		t.Fatalf("expected hybrid->CSR crossover over mode length (hybrid=%v csrAfter=%v)",
			sawHybrid, sawCSRAfterHybrid)
	}
}

func TestEvaluateDegenerate(t *testing.T) {
	m := DefaultLeafModel()
	c := m.Evaluate(LeafProfile{})
	if c.Dense != 0 || c.CSR != 0 || c.Hybrid != 0 {
		t.Fatalf("degenerate profile costs %+v", c)
	}
	if got := m.Choose(LeafProfile{}); got != StructDense {
		t.Fatalf("degenerate profile chose %v", got)
	}
}

func TestNoDenseColumnsDisablesHybridEdge(t *testing.T) {
	// With non-zeros spread evenly (share ~ 0), the hybrid's panel is empty
	// and it must never beat CSR by more than its extra build cost.
	m := DefaultLeafModel()
	p := LeafProfile{Rank: 50, ModeLength: 50_000, Accesses: 10_000_000, Density: 0.05, DenseColumnShare: 0}
	c := m.Evaluate(p)
	if c.Hybrid < c.CSR {
		t.Fatalf("hybrid (%v) beat CSR (%v) with no dense columns", c.Hybrid, c.CSR)
	}
}
