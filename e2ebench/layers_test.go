package main

import (
	"io"
	"math"
	"testing"
	"time"

	"aoadmm"
	"aoadmm/internal/core"
	"aoadmm/internal/stats"
)

func TestUnattributedFrac(t *testing.T) {
	if got := unattributedFrac(2, 0.5, 1, 0.3); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("2 s wall, 1.8 s of layers: unattributed %v, want 0.1", got)
	}
	if got := unattributedFrac(1, 0.7, 0.5); got >= 0 {
		t.Errorf("overlapping layers must read negative, got %v", got)
	}
	if got := unattributedFrac(0, 1); got != 0 {
		t.Errorf("zero wall: %v", got)
	}
}

// fitLayers attributes a traced rep's wall time to CSF build, MTTKRP, ADMM,
// Gram and the fit check; what is left is the unattributed share, so the
// layers and the unattributed share add up to the wall time exactly.
func TestFitLayersSumToWall(t *testing.T) {
	x := aoadmm.NewTensor([]int{2, 2, 2}, 3)
	x.Append([]int{0, 0, 0}, 1)
	x.Append([]int{0, 0, 1}, 2)
	x.Append([]int{1, 1, 1}, 3)
	p := &engineProbe{rank: 4}
	if _, err := p.builder(x, core.Options{Rank: 4}); err != nil {
		t.Fatal(err)
	}
	p.build, p.busy = 200*time.Millisecond, time.Second
	p.calls = []int64{1, 1, 1}

	met := stats.NewMetrics()
	met.AddKernel(stats.KernelADMMInner, 0, 500*time.Millisecond)
	met.AddKernel(stats.KernelGram, 0, 60*time.Millisecond)
	met.AddKernel(stats.KernelGram, 1, 40*time.Millisecond)
	met.AddKernel(stats.KernelFit, stats.ModeNone, 50*time.Millisecond)
	met.RecordADMMSolve([]int{3, 5, 5, 9}, 2)
	r := fitRun{wall: 2 * time.Second, iters: []time.Duration{time.Second, 500 * time.Millisecond}, traced: true}
	res := &aoadmm.Result{Metrics: met, Breakdown: stats.NewBreakdown(), RelErr: 0.5, RowIters: 42}
	rc := newRunCtx(1, time.Second, false, aoadmm.ScaleSmall, t.TempDir(), io.Discard)
	got := fitLayers(rc, r, res, p)

	layers := got["csf.build_s"] + got["mttkrp.busy_s"] + got["admm.busy_s"] + got["dense.gram_s"] + got["core.fit_check_s"]
	if math.Abs(layers-1.85) > 1e-9 {
		t.Errorf("layers sum to %v s, want 1.85", layers)
	}
	if math.Abs(got["core.unattributed_frac"]-0.075) > 1e-9 {
		t.Errorf("unattributed %v, want 0.075", got["core.unattributed_frac"])
	}
	if math.Abs(layers+got["core.unattributed_frac"]*r.wall.Seconds()-r.wall.Seconds()) > 1e-9 {
		t.Error("layers plus unattributed do not add up to the wall time")
	}
	for name, want := range map[string]float64{
		"mttkrp.calls": 3, "admm.blocks": 4, "admm.block_iters.p50": 5, "admm.block_iters.p90": 9,
		"admm.rho_adaptations": 2, "core.row_iters": 42, "core.relerr": 0.5, "core.iter_ms.p50": 750,
	} {
		if got[name] != want {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
	if got["mttkrp.gflop"] <= 0 || got["mttkrp.gb_computed"] <= 0 || got["csf.mb"] <= 0 {
		t.Errorf("work counts not computed: %v", got)
	}
}

func TestHistQuantile(t *testing.T) {
	h := map[string]int64{"1": 5, "2": 3, "10": 2}
	for _, c := range []struct{ q, want float64 }{{0.5, 1}, {0.6, 2}, {0.8, 2}, {0.9, 10}, {1, 10}} {
		if got := histQuantile(h, c.q); got != c.want {
			t.Errorf("histQuantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if histQuantile(nil, 0.5) != 0 {
		t.Error("empty histogram")
	}
}

func TestRoofline(t *testing.T) {
	// 1 GFLOP over 4 GB at 10 GB/s and 20 GFLOP/s peak: bandwidth-bound at
	// 2.5 GFLOP/s; 1.25 GFLOP/s achieved is half the bound.
	if got := roofline(1, 4, 0.8, 20, 10); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("memory-bound roofline share %v, want 0.5", got)
	}
	// At 100 GFLOP per GB the compute peak binds.
	if got := roofline(100, 1, 10, 20, 10); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("compute-bound roofline share %v, want 0.5", got)
	}
	if roofline(1, 1, 1, 0, 10) != 0 {
		t.Error("missing calibration must read 0")
	}
}

func TestAlignedBlockSize(t *testing.T) {
	for _, c := range []struct {
		dims []int
		want int
	}{
		{[]int{2500, 250, 4000}, 25}, // medium reddit: worker starts 1250, 125, 2000
		{[]int{1000, 200, 400}, 50},
		{[]int{312, 31, 500}, 2}, // small reddit: worker starts 156, 16, 250
		{[]int{7, 9}, 1},
	} {
		if got := alignedBlockSize(c.dims, 2); got != c.want {
			t.Errorf("alignedBlockSize(%v) = %d, want %d", c.dims, got, c.want)
		}
	}
}
