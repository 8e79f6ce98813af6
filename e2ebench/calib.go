package main

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"
)

// calibrate measures the machine in the same run as the workload: sustained
// memory bandwidth with a STREAM triad whose arrays are each at least four
// times the last-level cache, and peak scalar FMA throughput with a loop
// that never leaves registers. Together they bound MTTKRP's roofline.
func calibrate(rc *runCtx) {
	llc := llcBytes()
	n := int(4*llc/8) + 1
	gbps := triadGBps(n, runtime.GOMAXPROCS(0))
	debug.FreeOSMemory()
	gflops := fmaGFlops(runtime.GOMAXPROCS(0))
	rc.logf("calibration: LLC %.1f MiB (sysfs), triad arrays 3 x %.1f MiB: %.2f GB/s; FMA %.2f GFLOP/s",
		float64(llc)/(1<<20), float64(n*8)/(1<<20), gbps, gflops)
	rc.setLayer("machine.triad_gbps", gbps, 1)
	rc.setLayer("machine.fma_gflops", gflops, 1)
}

// llcBytes reads the largest cache size of cpu0 from sysfs, falling back to
// 32 MiB when sysfs does not describe the caches.
func llcBytes() int64 {
	var best int64
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		raw, err := os.ReadFile(filepath.Join(d, "size"))
		if err != nil {
			continue
		}
		if b := parseCacheSize(strings.TrimSpace(string(raw))); b > best {
			best = b
		}
	}
	if best == 0 {
		return 32 << 20
	}
	return best
}

// parseCacheSize parses sysfs cache sizes such as "107520K" or "2M".
func parseCacheSize(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0
	}
	return v * mult
}

// triadGBps runs a[i] = b[i] + s*c[i] over n-element arrays split across
// threads and reports the best of five passes, counting 24 bytes per element
// as STREAM does.
func triadGBps(n, threads int) float64 {
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	parallel(n, threads, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a[i], b[i], c[i] = 1, 2, 3
		}
	})
	best := math.Inf(1)
	for pass := 0; pass < 5; pass++ {
		start := time.Now()
		parallel(n, threads, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				a[i] = b[i] + 3*c[i]
			}
		})
		best = math.Min(best, time.Since(start).Seconds())
	}
	return float64(24*n) / best / 1e9
}

func parallel(n, threads int, fn func(lo, hi int)) {
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		lo, hi := n*t/threads, n*(t+1)/threads
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(lo, hi)
		}()
	}
	wg.Wait()
}

// fmaSink keeps the FMA loop's result live.
var fmaSink float64

// fmaGFlops runs eight independent FMA chains per thread — enough to hide
// the instruction latency — counts two flops per FMA, and reports the best
// of three passes.
func fmaGFlops(threads int) float64 {
	const iters = 1 << 23
	results := make([]float64, threads)
	best := math.Inf(1)
	for pass := 0; pass < 3; pass++ {
		start := time.Now()
		parallel(threads, threads, func(lo, hi int) {
			for t := lo; t < hi; t++ {
				x0, x1, x2, x3 := 1.0, 1.1, 1.2, 1.3
				x4, x5, x6, x7 := 1.4, 1.5, 1.6, 1.7
				const m, c = 0.999999, 1e-7
				for i := 0; i < iters; i++ {
					x0 = math.FMA(x0, m, c)
					x1 = math.FMA(x1, m, c)
					x2 = math.FMA(x2, m, c)
					x3 = math.FMA(x3, m, c)
					x4 = math.FMA(x4, m, c)
					x5 = math.FMA(x5, m, c)
					x6 = math.FMA(x6, m, c)
					x7 = math.FMA(x7, m, c)
				}
				results[t] = x0 + x1 + x2 + x3 + x4 + x5 + x6 + x7
			}
		})
		best = math.Min(best, time.Since(start).Seconds())
	}
	for _, r := range results {
		fmaSink += r
	}
	return float64(threads) * iters * 8 * 2 / best / 1e9
}
