package perfmodel

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"aoadmm/internal/alto"
	"aoadmm/internal/csf"
	"aoadmm/internal/dense"
	"aoadmm/internal/mttkrp"
	"aoadmm/internal/tensor"
)

// The two calibration shapes mirror internal/alto's BenchmarkMTTKRP
// scenarios (keep in sync): a uniform long-fiber tensor where CSF's
// amortized tree walk wins, and a planted power-law hypersparse tensor
// where ALTO's flat linear scan wins.
func uniformGen() tensor.GenOptions {
	return tensor.GenOptions{Dims: []int{96, 96, 96}, NNZ: 400_000, Seed: 11}
}

func skewedGen() tensor.GenOptions {
	return tensor.GenOptions{
		Dims: []int{65_536, 65_536, 256}, NNZ: 300_000,
		Skew: []float64{1.1, 1.1, 1.4}, Seed: 12,
	}
}

func genTensor(t *testing.T, opts tensor.GenOptions) *tensor.COO {
	t.Helper()
	x, err := tensor.Uniform(opts)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// TestChooseKernelFormatBySkew pins the selector's decisions on the two
// calibration shapes: ALTO on the planted power-law hypersparse tensor, CSF
// on the uniform long-fiber tensor. These are the deterministic model-only
// assertions backing the "auto" backend.
func TestChooseKernelFormatBySkew(t *testing.T) {
	if got := ChooseKernelFormat(genTensor(t, skewedGen()), 16, 1); got != FormatALTO {
		t.Fatalf("skewed hypersparse tensor chose %q, want alto", got)
	}
	if got := ChooseKernelFormat(genTensor(t, uniformGen()), 16, 1); got != FormatCSF {
		t.Fatalf("uniform long-fiber tensor chose %q, want csf", got)
	}
}

// TestResolveKernelFormat pins the closed name set: the empty name is CSF,
// explicit names pass through, "auto" resolves through the cost model (CSF
// on an empty tensor), and any other name fails naming itself and the set.
func TestResolveKernelFormat(t *testing.T) {
	skewed := genTensor(t, skewedGen())
	empty := tensor.NewCOO([]int{3, 3, 3}, 0)
	for _, c := range []struct {
		name string
		x    *tensor.COO
		want string
	}{
		{"", skewed, FormatCSF},
		{FormatCSF, skewed, FormatCSF},
		{FormatALTO, empty, FormatALTO},
		{FormatAuto, skewed, FormatALTO},
		{FormatAuto, empty, FormatCSF},
	} {
		got, err := ResolveKernelFormat(c.name, c.x, 16, 1)
		if err != nil || got != c.want {
			t.Errorf("ResolveKernelFormat(%q) = %q, %v; want %q", c.name, got, err, c.want)
		}
	}
	for _, name := range []string{"probe", "CSF", "blcok-csf"} {
		if _, err := ResolveKernelFormat(name, empty, 16, 1); err == nil ||
			!strings.Contains(err.Error(), `"`+name+`"`) || !strings.Contains(err.Error(), "csf, alto, auto") {
			t.Errorf("ResolveKernelFormat(%q) err = %v, want one naming it and the known set", name, err)
		}
	}
}

// TestProfileTensor checks the measured structural quantities on a tensor
// whose tree shape is known by construction.
func TestProfileTensor(t *testing.T) {
	x := tensor.NewCOO([]int{4, 3, 5}, 6)
	// Two non-zeros share the (i0,i1) fiber (0,0); all slices of mode 0
	// except slice 3 are occupied; slice 0 holds 3 of 6 non-zeros.
	for _, c := range [][]int{{0, 0, 0}, {0, 0, 4}, {0, 1, 1}, {1, 2, 2}, {2, 0, 3}, {2, 2, 0}} {
		x.Append(c, 1)
	}
	p := ProfileTensor(x, 8, 2)
	if p.NNZ != 6 || p.Rank != 8 || p.Threads != 2 {
		t.Fatalf("profile header: %+v", p)
	}
	if p.Slices[0] != 3 {
		t.Fatalf("mode-0 slices = %d, want 3", p.Slices[0])
	}
	if p.MaxSliceShare[0] != 0.5 {
		t.Fatalf("mode-0 max share = %v, want 0.5", p.MaxSliceShare[0])
	}
	// Mode-0 tree: distinct (i0,i1) prefixes = {(0,0),(0,1),(1,2),(2,0),(2,2)}.
	if len(p.Nodes[0]) != 1 || p.Nodes[0][0] != 5 {
		t.Fatalf("mode-0 nodes = %v, want [5]", p.Nodes[0])
	}
	if got := p.AvgFiberLen(0); got != 6.0/5.0 {
		t.Fatalf("mode-0 avg fiber len = %v, want 1.2", got)
	}
}

// TestThreadShareFloor checks the slice-owner imbalance bound: one slice
// holding 60% of the non-zeros floors the parallel fraction at 0.6 no matter
// how many threads run.
func TestThreadShareFloor(t *testing.T) {
	if got := threadsShare(8, 0.6); got != 0.6 {
		t.Fatalf("threadsShare(8, 0.6) = %v", got)
	}
	if got := threadsShare(8, 0.01); got != 0.125 {
		t.Fatalf("threadsShare(8, 0.01) = %v", got)
	}
	if got := threadsShare(0, 0); got != 1.0 {
		t.Fatalf("threadsShare(0, 0) = %v", got)
	}
}

// TestImbalancePushesModelToALTO checks the parallel story: a tensor whose
// hottest slice holds most of the non-zeros cannot speed up under CSF's
// slice-owner scheduling, so with enough threads the model must flip to the
// nnz-balanced ALTO kernel even where CSF wins serially.
func TestImbalancePushesModelToALTO(t *testing.T) {
	k := DefaultKernelModel()
	p := KernelProfile{
		Dims:          []int{1000, 1000, 1000},
		NNZ:           1_000_000,
		Rank:          16,
		Threads:       1,
		Slices:        []int64{1000, 1000, 1000},
		Nodes:         [][]int64{{50_000}, {50_000}, {50_000}}, // fiber len 20: CSF-friendly
		MaxSliceShare: []float64{0.8, 0.8, 0.8},
	}
	if got := k.ChooseKernelFormat(&p); got != FormatCSF {
		t.Fatalf("serial long-fiber tensor chose %q, want csf", got)
	}
	p.Threads = 8
	if got := k.ChooseKernelFormat(&p); got != FormatALTO {
		t.Fatalf("8-thread 0.8-share tensor chose %q, want alto (csf=%g alto=%g)",
			got, k.TotalCost(&p, FormatCSF), k.TotalCost(&p, FormatALTO))
	}
}

// TestPredictionsMatchMeasured runs both kernels on both calibration shapes
// and checks the cost model's sign against the wall clock: wherever the
// measured winner is decisive (>15% gap), the model must agree. Ties are
// ignored — on a loaded CI machine a near-1.0 ratio carries no signal.
func TestPredictionsMatchMeasured(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short")
	}
	const rank = 16
	for _, sc := range []struct {
		name string
		gen  tensor.GenOptions
	}{
		{"uniform", uniformGen()},
		{"skewed", skewedGen()},
	} {
		x := genTensor(t, sc.gen)
		order := x.Order()

		predicted := ChooseKernelFormat(x, rank, 1)

		rng := rand.New(rand.NewSource(5))
		factors := make([]*dense.Matrix, order)
		maxDim := 0
		for m := 0; m < order; m++ {
			factors[m] = dense.New(x.Dims[m], rank)
			for i := range factors[m].Data {
				factors[m].Data[i] = rng.Float64()
			}
			if x.Dims[m] > maxDim {
				maxDim = x.Dims[m]
			}
		}
		out := dense.New(maxDim, rank)
		mo := mttkrp.Options{Threads: 1}

		set := csf.BuildSet(x.Clone())
		at, err := alto.Build(x.Clone(), alto.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sweep := func(run func(m int)) time.Duration {
			best := time.Duration(1<<63 - 1)
			for rep := 0; rep < 3; rep++ {
				start := time.Now()
				for m := 0; m < order; m++ {
					run(m)
				}
				if d := time.Since(start); d < best {
					best = d
				}
			}
			return best
		}
		tCSF := sweep(func(m int) {
			mttkrp.Compute(set.Tree(m), factors, out.RowBlock(0, x.Dims[m]), nil, mo)
		})
		tALTO := sweep(func(m int) {
			at.MTTKRP(m, factors, out.RowBlock(0, x.Dims[m]), mo)
		})

		ratio := float64(tALTO) / float64(tCSF)
		t.Logf("%s: predicted=%s measured alto/csf=%.3f (csf=%v alto=%v)",
			sc.name, predicted, ratio, tCSF, tALTO)
		switch {
		case ratio < 1/1.15 && predicted != FormatALTO:
			t.Errorf("%s: ALTO measured %.0f%% faster but model picked %s",
				sc.name, (1-ratio)*100, predicted)
		case ratio > 1.15 && predicted != FormatCSF:
			t.Errorf("%s: CSF measured %.0f%% faster but model picked %s",
				sc.name, (ratio-1)*100, predicted)
		}
	}
}
