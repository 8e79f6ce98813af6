package main

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// clock is the time source of the load generator; tests substitute a fake
// one to check what the generator measures.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

// SleepUntil blocks the thread in nanosleep rather than in time.Sleep: the
// runtime's timers round short sleeps up to about a millisecond on Linux,
// which would make the generator, not the server, late for requests due
// every half millisecond. nanosleep overshoots by the kernel's timer slack,
// about 65 µs here. (Cutting the slack needs the sender locked to its
// thread, which costs more in wake-ups than it saves.)
func (realClock) SleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		if err := syscall.Nanosleep(&ts, nil); err != nil && err != syscall.EINTR {
			time.Sleep(d)
		}
	}
}

// arrival is one scheduled request of an open-loop phase.
type arrival struct {
	due  time.Duration // offset from the phase start
	kind int
	i    int // index into the kind's pre-built request payloads
}

// sample records one request: when it was due, when the generator managed to
// send it, and when its response had been read, all as phase offsets.
type sample struct {
	kind            int
	due, start, end time.Duration
	err             error
}

// latency is measured from the due time, so a stall also charges the wait it
// imposes on every request queued behind it.
func (s sample) latency() time.Duration { return s.end - s.due }

// late is how far behind its schedule the generator sent the request.
func (s sample) late() time.Duration { return s.start - s.due }

// poisson returns arrivals of one kind at the given mean rate over d, with
// exponential gaps drawn from rng.
func poisson(rng *rand.Rand, rate float64, d time.Duration, kind int) []arrival {
	var out []arrival
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= d {
			return out
		}
		out = append(out, arrival{due: t, kind: kind})
	}
}

// numberPayloads points every arrival at its own payload — consecutive per
// kind across the schedules, so no two requests share a body — and returns
// how many payloads of each kind the schedules need.
func numberPayloads(scheds ...[]arrival) map[int]int {
	next := map[int]int{}
	for _, s := range scheds {
		for i := range s {
			s[i].i = next[s[i].kind]
			next[s[i].kind]++
		}
	}
	return next
}

// mergeSchedules interleaves arrival lists by due time.
func mergeSchedules(lists ...[]arrival) []arrival {
	var out []arrival
	for _, l := range lists {
		out = append(out, l...)
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].due < out[b].due })
	return out
}

// runOpenLoop sends every arrival at its due time, regardless of how earlier
// requests fared, over at most conns concurrent senders; send learns which
// sender calls it. A sender that falls behind sends immediately and the
// sample records how late it ran.
func runOpenLoop(clk clock, sched []arrival, conns int, send func(conn int, a arrival) error) []sample {
	out := make([]sample, len(sched))
	base := clk.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				a := sched[i]
				clk.SleepUntil(base.Add(a.due))
				out[i] = sample{kind: a.kind, due: a.due, start: clk.Now().Sub(base)}
				out[i].err = send(c, a)
				out[i].end = clk.Now().Sub(base)
			}
		}(c)
	}
	wg.Wait()
	return out
}

// runClosedLoop runs clients that each send their next request as soon as
// the previous one returns, for d. Latency here is send-to-response.
func runClosedLoop(clients int, d time.Duration, send func(client, i int) error) []sample {
	var mu sync.Mutex
	var out []sample
	base := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var local []sample
			for i := 0; ; i++ {
				start := time.Since(base)
				if start >= d {
					break
				}
				err := send(c, i)
				local = append(local, sample{due: start, start: start, end: time.Since(base), err: err})
			}
			mu.Lock()
			out = append(out, local...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return out
}
