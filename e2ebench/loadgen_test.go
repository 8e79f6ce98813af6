package main

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// fakeClock advances only when the code under test sleeps or the test's
// service advances it.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.now) {
		c.now = t
	}
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// A server that takes 5 ms per request, sent one every millisecond over one
// connection, falls behind: each request waits for the ones before it. The
// open loop charges that wait to the request, because latency runs from the
// due time, not from when the generator got round to sending it.
func TestOpenLoopMeasuresFromDueTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	sched := []arrival{{due: 0}, {due: time.Millisecond}, {due: 2 * time.Millisecond}}
	samples := runOpenLoop(clk, sched, 1, func(int, arrival) error {
		clk.advance(5 * time.Millisecond)
		return nil
	})
	wantLatency := []time.Duration{5, 9, 13}
	wantLate := []time.Duration{0, 4, 8}
	for i, s := range samples {
		if got := s.latency(); got != wantLatency[i]*time.Millisecond {
			t.Errorf("request %d latency %v, want %v", i, got, wantLatency[i]*time.Millisecond)
		}
		if got := s.late(); got != wantLate[i]*time.Millisecond {
			t.Errorf("request %d late by %v, want %v", i, got, wantLate[i]*time.Millisecond)
		}
		if got := s.end - s.start; got != 5*time.Millisecond {
			t.Errorf("request %d service time %v, want 5ms", i, got)
		}
	}
}

// A generator that keeps up sends each request exactly when due.
func TestOpenLoopOnTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	sched := []arrival{{due: 0}, {due: 10 * time.Millisecond}, {due: 20 * time.Millisecond}}
	samples := runOpenLoop(clk, sched, 1, func(int, arrival) error {
		clk.advance(time.Millisecond)
		return nil
	})
	for i, s := range samples {
		if s.late() != 0 || s.latency() != time.Millisecond {
			t.Errorf("request %d: late %v latency %v, want 0 and 1ms", i, s.late(), s.latency())
		}
	}
}

func TestPoissonScheduleRateAndOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := poisson(rng, 1000, 10*time.Second, kindTopK)
	b := poisson(rng, 100, 10*time.Second, kindFoldIn)
	if n := len(a); n < 9500 || n > 10500 {
		t.Errorf("1000/s over 10s gave %d arrivals", n)
	}
	merged := mergeSchedules(a, b)
	if len(merged) != len(a)+len(b) {
		t.Fatalf("merge lost arrivals")
	}
	for i := 1; i < len(merged); i++ {
		if merged[i].due < merged[i-1].due {
			t.Fatalf("arrival %d due %v before %v", i, merged[i].due, merged[i-1].due)
		}
	}
	n := numberPayloads(merged)
	if n[kindTopK] != len(a) || n[kindFoldIn] != len(b) {
		t.Errorf("payload counts %v, want %d top-K and %d fold-in", n, len(a), len(b))
	}
	seen := map[[2]int]bool{}
	for _, x := range merged {
		key := [2]int{x.kind, x.i}
		if seen[key] {
			t.Fatalf("payload %v used twice", key)
		}
		seen[key] = true
	}
}
