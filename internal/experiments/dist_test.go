package experiments

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"aoadmm/internal/dist"
)

func TestDistComm(t *testing.T) {
	var buf bytes.Buffer
	cfg := quickCfg(&buf)
	cfg.Datasets = []string{"patents"}
	// A non-default inner budget: the workers run it and the baseline
	// column must price it.
	cfg.InnerMaxIters = 3
	if err := DistComm(cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Distributed-memory") {
		t.Fatalf("missing header:\n%s", out)
	}
	// Four node counts must appear; blocked ADMM bytes must be zero.
	for _, want := range []string{"patents", "8"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	dataRows := 0
	for _, l := range lines {
		if strings.HasPrefix(l, "patents") {
			dataRows++
			fields := strings.Fields(l)
			// blocked_admm_B is the second-to-last column and must be "0".
			if fields[len(fields)-2] != "0" {
				t.Fatalf("blocked ADMM communicated: %q", l)
			}
			nodes, err := strconv.Atoi(fields[1])
			if err != nil {
				t.Fatal(err)
			}
			if !pricedAt(fields[len(fields)-1], nodes, cfg.MaxOuter, 3) || (nodes > 1 && pricedAt(fields[len(fields)-1], nodes, cfg.MaxOuter, 10)) {
				t.Fatalf("baseline column does not follow InnerMaxIters=3: %q", l)
			}
		}
	}
	if dataRows != 4 {
		t.Fatalf("%d data rows, want 4", dataRows)
	}
}

// pricedAt reports whether kb is the table's baseline figure for some outer
// iteration count in [1, maxOuter] at the given inner budget.
func pricedAt(kb string, nodes, maxOuter, inner int) bool {
	for outer := 1; outer <= maxOuter; outer++ {
		if fmt.Sprintf("%.1f", float64(dist.BaselineADMMCommBytes(nodes, 3, outer, inner))/1e3) == kb {
			return true
		}
	}
	return false
}
