package prox

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseList builds the per-mode operator list from a CLI-style constraint
// spec: a single Parse spec applied to every mode, or a ";"-separated list
// with one spec per mode. It is the shared grammar of the serving daemon's
// job specs and the distributed engine's wire-level job assignments, so a
// constraint string round-trips identically through both.
func ParseList(spec string) ([]Operator, error) {
	if !strings.Contains(spec, ";") {
		c, err := Parse(spec)
		if err != nil {
			return nil, err
		}
		return []Operator{c}, nil
	}
	parts := strings.Split(spec, ";")
	out := make([]Operator, len(parts))
	for m, p := range parts {
		c, err := Parse(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("mode %d: %w", m, err)
		}
		out[m] = c
	}
	return out, nil
}

// Broadcast expands a constraint list to one operator per mode of an
// order-mode tensor: an empty list means unconstrained, a single operator
// applies to every mode, and an order-length list is taken as is with nil
// entries read as Unconstrained. Any other length is an error. The result
// is a fresh slice; cs is not modified.
func Broadcast(cs []Operator, order int) ([]Operator, error) {
	out := make([]Operator, order)
	switch len(cs) {
	case 0, 1, order:
	default:
		return nil, fmt.Errorf("%d constraints for order-%d tensor", len(cs), order)
	}
	for m := range out {
		var c Operator
		switch len(cs) {
		case 1:
			c = cs[0]
		case order:
			c = cs[m]
		}
		if c == nil {
			c = Unconstrained{}
		}
		out[m] = c
	}
	return out, nil
}

// Parse builds an Operator from a textual spec, as used by the CLIs:
//
//	none | nonneg | l1:<lambda> | nonneg+l1:<lambda> | l2:<lambda> |
//	simplex | simplex:<radius> | box:<lo>,<hi> | l2ball | l2ball:<radius>
func Parse(spec string) (Operator, error) {
	name, arg, hasArg := strings.Cut(spec, ":")
	switch name {
	case "", "none", "identity":
		return Unconstrained{}, nil
	case "nonneg", "nn":
		return NonNegative{}, nil
	case "l1":
		lam, err := parsePositive(arg, hasArg, "l1")
		if err != nil {
			return nil, err
		}
		return L1{Lambda: lam}, nil
	case "nonneg+l1", "nnl1":
		lam, err := parsePositive(arg, hasArg, "nonneg+l1")
		if err != nil {
			return nil, err
		}
		return NonNegL1{Lambda: lam}, nil
	case "l2", "ridge":
		lam, err := parsePositive(arg, hasArg, "l2")
		if err != nil {
			return nil, err
		}
		return L2{Lambda: lam}, nil
	case "elastic":
		l1s, l2s, ok := strings.Cut(arg, ",")
		if !hasArg || !ok {
			return nil, fmt.Errorf("prox: elastic requires elastic:<l1>,<l2>")
		}
		l1, err := parsePositive(l1s, true, "elastic l1")
		if err != nil {
			return nil, err
		}
		l2, err := parsePositive(l2s, true, "elastic l2")
		if err != nil {
			return nil, err
		}
		return ElasticNet{L1: l1, L2: l2}, nil
	case "simplex":
		if !hasArg {
			return Simplex{Radius: 1}, nil
		}
		r, err := parsePositive(arg, true, "simplex")
		if err != nil {
			return nil, err
		}
		return Simplex{Radius: r}, nil
	case "box":
		lo, hi, ok := strings.Cut(arg, ",")
		if !hasArg || !ok {
			return nil, fmt.Errorf("prox: box requires box:<lo>,<hi>")
		}
		l, err := strconv.ParseFloat(lo, 64)
		if err != nil {
			return nil, fmt.Errorf("prox: bad box lo %q: %v", lo, err)
		}
		h, err := strconv.ParseFloat(hi, 64)
		if err != nil {
			return nil, fmt.Errorf("prox: bad box hi %q: %v", hi, err)
		}
		if l > h {
			return nil, fmt.Errorf("prox: box lo %g > hi %g", l, h)
		}
		return Box{Lo: l, Hi: h}, nil
	case "l2ball":
		if !hasArg {
			return L2Ball{Radius: 1}, nil
		}
		r, err := parsePositive(arg, true, "l2ball")
		if err != nil {
			return nil, err
		}
		return L2Ball{Radius: r}, nil
	default:
		return nil, fmt.Errorf("prox: unknown operator %q", name)
	}
}

func parsePositive(arg string, hasArg bool, what string) (float64, error) {
	if !hasArg || arg == "" {
		return 0, fmt.Errorf("prox: %s requires a parameter, e.g. %s:0.1", what, what)
	}
	v, err := strconv.ParseFloat(arg, 64)
	if err != nil {
		return 0, fmt.Errorf("prox: bad %s parameter %q: %v", what, arg, err)
	}
	if v <= 0 {
		return 0, fmt.Errorf("prox: %s parameter must be positive, got %g", what, v)
	}
	return v, nil
}
