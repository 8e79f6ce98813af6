package prox

import (
	"strings"
	"testing"
)

func TestParseValid(t *testing.T) {
	cases := []struct {
		spec string
		name string
	}{
		{"none", "none"},
		{"", "none"},
		{"identity", "none"},
		{"nonneg", "nonneg"},
		{"nn", "nonneg"},
		{"l1:0.1", "l1(0.1)"},
		{"nonneg+l1:0.25", "nonneg+l1(0.25)"},
		{"nnl1:0.25", "nonneg+l1(0.25)"},
		{"l2:2", "l2(2)"},
		{"ridge:2", "l2(2)"},
		{"simplex", "simplex(1)"},
		{"simplex:3", "simplex(3)"},
		{"box:-1,1", "box[-1,1]"},
		{"l2ball", "l2ball(1)"},
		{"l2ball:2.5", "l2ball(2.5)"},
	}
	for _, c := range cases {
		op, err := Parse(c.spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.spec, err)
			continue
		}
		if op.Name() != c.name {
			t.Errorf("Parse(%q).Name() = %q, want %q", c.spec, op.Name(), c.name)
		}
	}
}

func TestParseInvalid(t *testing.T) {
	cases := []struct {
		spec    string
		errPart string
	}{
		{"bogus", "unknown"},
		{"l1", "requires a parameter"},
		{"l1:", "requires a parameter"},
		{"l1:abc", "bad l1 parameter"},
		{"l1:-1", "must be positive"},
		{"l2:0", "must be positive"},
		{"box:1", "requires box"},
		{"box:a,b", "bad box lo"},
		{"box:2,1", "lo 2 > hi 1"},
		{"simplex:-1", "must be positive"},
	}
	for _, c := range cases {
		_, err := Parse(c.spec)
		if err == nil {
			t.Errorf("Parse(%q): expected error", c.spec)
			continue
		}
		if !strings.Contains(err.Error(), c.errPart) {
			t.Errorf("Parse(%q) error %q does not contain %q", c.spec, err, c.errPart)
		}
	}
}

func TestParseRoundTripApply(t *testing.T) {
	op, err := Parse("nonneg+l1:0.1")
	if err != nil {
		t.Fatal(err)
	}
	row := []float64{1, -1}
	op.ApplyRow(row, 1)
	if row[0] != 0.9 || row[1] != 0 {
		t.Fatalf("parsed operator misbehaves: %v", row)
	}
}

func TestBroadcast(t *testing.T) {
	none, err := Broadcast(nil, 3)
	if err != nil || len(none) != 3 {
		t.Fatalf("Broadcast(nil, 3) = %v, %v", none, err)
	}
	for m, c := range none {
		if _, ok := c.(Unconstrained); !ok {
			t.Fatalf("mode %d: %T, want Unconstrained", m, c)
		}
	}
	one, err := Broadcast([]Operator{NonNegative{}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for m, c := range one {
		if _, ok := c.(NonNegative); !ok {
			t.Fatalf("mode %d: %T, want NonNegative", m, c)
		}
	}
	in := []Operator{NonNegative{}, nil, L1{Lambda: 1}}
	per, err := Broadcast(in, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := per[1].(Unconstrained); !ok || in[1] != nil {
		t.Fatalf("nil entry: got %T, input now %v", per[1], in[1])
	}
	if _, err := Broadcast(in[:2], 3); err == nil || !strings.Contains(err.Error(), "2 constraints for order-3") {
		t.Fatalf("wrong length: err = %v", err)
	}
}
