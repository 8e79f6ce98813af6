// Package dist simulates distributed-memory AO-ADMM, substantiating the
// paper's §IV-B remark that the blockwise formulation extends to distributed
// memory with "no communication ... beyond the MTTKRP operation".
//
// The simulation runs N "nodes" as goroutines over a coarse-grained 1-D
// decomposition (Smith & Karypis, IPDPS'16 [23] family): the tensor's
// non-zeros are partitioned by mode-0 slice, and every factor's rows are
// partitioned contiguously so each node owns the rows of every mode it
// updates. Per outer iteration and mode:
//
//  1. each node computes a partial MTTKRP from its local non-zeros;
//  2. the partials are reduce-scattered so each node holds the complete K
//     rows it owns (communication: the non-owned portion of each partial);
//  3. each node runs blocked ADMM on its owned rows — zero communication,
//     because every block's convergence is purely local (the paper's
//     claim); the baseline variant would need a residual allreduce per
//     inner iteration, which the simulator also prices for comparison;
//  4. the updated rows are allgathered so the next MTTKRP sees full
//     factors, and per-node Gram contributions are allreduced.
//
// All collectives run over Go channels through a Pricer that counts every
// byte moved, so tests can verify both numerical equivalence with the
// shared-memory solver and the communication-free ADMM property. The
// node-local steps and the pricing rules live in node.go, shared with the
// real multi-process engine (internal/distnet) — this simulator is that
// engine's numerical and communication-cost oracle.
package dist

import (
	"fmt"
	"sync"

	"aoadmm/internal/admm"
	"aoadmm/internal/csf"
	"aoadmm/internal/dense"
	"aoadmm/internal/kruskal"
	"aoadmm/internal/prox"
	"aoadmm/internal/tensor"
)

// Options configures a distributed factorization.
type Options struct {
	// Nodes is the simulated node count (>= 1).
	Nodes int
	// Rank is the CPD rank.
	Rank int
	// Constraints is one operator per mode (single-element broadcasts).
	Constraints []prox.Operator
	// MaxOuterIters caps outer iterations (<= 0 means 50).
	MaxOuterIters int
	// Tol, when > 0, stops once the relative error improves by less than
	// Tol between outer iterations (core.Factorize's stopping rule). Zero
	// — the default — runs MaxOuterIters unconditionally, preserving
	// byte-for-byte communication parity across node counts.
	Tol float64
	// InnerEps / InnerMaxIters / BlockSize parameterize the local ADMM.
	InnerEps      float64
	InnerMaxIters int
	BlockSize     int
	// Mode0Ranges, when non-nil, fixes each node's mode-0 ownership range
	// explicitly (len must equal Nodes, ranges must partition [0, Dims[0])
	// in ascending order). The networked engine derives placement from the
	// on-disk shard layout; passing the same ranges here lets parity tests
	// price the identical decomposition. Nil means the even Partition.
	Mode0Ranges [][2]int
	// Seed drives initialization (matching core.Factorize's layout).
	Seed int64
}

// CommStats tallies simulated network traffic.
type CommStats struct {
	// MTTKRPBytes is the volume moved by the K reduce-scatter.
	MTTKRPBytes int64
	// FactorBytes is the volume moved by factor allgathers.
	FactorBytes int64
	// GramBytes is the volume of the Gram allreduce.
	GramBytes int64
	// ADMMBytes is communication during the inner ADMM itself. The blocked
	// formulation keeps this at exactly zero.
	ADMMBytes int64
	// Messages counts discrete transfers.
	Messages int64
}

// Total returns all bytes moved.
func (c CommStats) Total() int64 {
	return c.MTTKRPBytes + c.FactorBytes + c.GramBytes + c.ADMMBytes
}

// Result is the outcome of a distributed run.
type Result struct {
	Factors    *kruskal.Tensor
	RelErr     float64
	OuterIters int
	Converged  bool
	Comm       CommStats
}

// Run factorizes x on opts.Nodes simulated nodes and returns the factors
// with communication statistics.
func Run(x *tensor.COO, opts Options) (*Result, error) {
	order := x.Order()
	if opts.Nodes < 1 {
		return nil, fmt.Errorf("dist: need >= 1 node, got %d", opts.Nodes)
	}
	if opts.Rank <= 0 {
		return nil, fmt.Errorf("dist: Rank must be positive")
	}
	if x.NNZ() == 0 {
		return nil, fmt.Errorf("dist: empty tensor")
	}
	cons, err := prox.Broadcast(opts.Constraints, order)
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	if opts.MaxOuterIters <= 0 {
		opts.MaxOuterIters = 50
	}
	n := opts.Nodes

	// Partition every mode's rows contiguously across nodes; mode 0 may be
	// pinned by the caller (shard-derived placement parity).
	owned := make([][][2]int, order)
	for m := 0; m < order; m++ {
		owned[m] = Partition(x.Dims[m], n)
	}
	if opts.Mode0Ranges != nil {
		if err := validateRanges(opts.Mode0Ranges, n, x.Dims[0]); err != nil {
			return nil, err
		}
		owned[0] = opts.Mode0Ranges
	}

	// Partition non-zeros by owner of their mode-0 slice.
	parts := SplitByMode0(x, owned[0])

	// Per-node CSF sets over local non-zeros (full global dims, so factor
	// indices remain global).
	trees := make([]*csf.Set, n)
	for i := 0; i < n; i++ {
		trees[i] = csf.BuildSet(parts[i])
	}

	// Shared (replicated) factor state: core.Factorize's init, with the
	// single-threaded norm so it matches a Threads 1 shared-memory run.
	xNormSq := x.NormSq()
	model := kruskal.Init(x.Dims, opts.Rank, opts.Seed, xNormSq, 1)
	duals := make([]*dense.Matrix, order)
	grams := make([]*dense.Matrix, order)
	for m := 0; m < order; m++ {
		duals[m] = dense.New(x.Dims[m], opts.Rank)
		grams[m] = dense.Gram(model.Factors[m], 1)
	}

	pricer := &Pricer{}

	res := &Result{Factors: model, RelErr: 1}
	prevErr := res.RelErr

	for outer := 1; outer <= opts.MaxOuterIters; outer++ {
		res.OuterIters = outer
		var lastK *dense.Matrix
		var lastMode int
		for m := 0; m < order; m++ {
			g := dense.GramProduct(grams, m)

			// Phase 1: local partial MTTKRPs (parallel across nodes).
			partials := make([]*dense.Matrix, n)
			var wg sync.WaitGroup
			wg.Add(n)
			for i := 0; i < n; i++ {
				go func(i int) {
					defer wg.Done()
					partials[i] = PartialMTTKRP(trees[i].Tree(m), model.Factors, x.Dims[m], opts.Rank)
				}(i)
			}
			wg.Wait()

			// Phase 2: reduce-scatter K. Each node sends the rows it does
			// not own to their owners; deterministic node-order summation.
			k := dense.New(x.Dims[m], opts.Rank)
			for i := 0; i < n; i++ {
				p := partials[i]
				if p == nil {
					continue
				}
				ob, oe := owned[m][i][0], owned[m][i][1]
				for r := 0; r < x.Dims[m]; r++ {
					src := p.Row(r)
					nonZero := false
					for _, v := range src {
						if v != 0 {
							nonZero = true
							break
						}
					}
					if !nonZero {
						continue
					}
					dst := k.Row(r)
					for j, v := range src {
						dst[j] += v
					}
					if r < ob || r >= oe {
						pricer.ReduceScatterRow(opts.Rank)
					}
				}
			}

			// Phase 3: owned-rows blocked ADMM on every node concurrently —
			// no communication (the §IV-B property). The block grid is
			// global so results are identical to the shared-memory solver
			// when node boundaries align with block boundaries.
			cfg := admm.Config{
				Prox:      cons[m],
				Eps:       opts.InnerEps,
				MaxIters:  opts.InnerMaxIters,
				BlockSize: opts.BlockSize,
				Threads:   1,
			}
			errs := make([]error, n)
			wg.Add(n)
			for i := 0; i < n; i++ {
				go func(i int) {
					defer wg.Done()
					ob, oe := owned[m][i][0], owned[m][i][1]
					errs[i] = LocalADMM(
						model.Factors[m].RowBlock(ob, oe),
						duals[m].RowBlock(ob, oe),
						k.RowBlock(ob, oe),
						g, cfg)
				}(i)
			}
			wg.Wait()
			for i, e := range errs {
				if e != nil {
					return nil, fmt.Errorf("dist: node %d mode %d: %w", i, m, e)
				}
			}

			// Phase 4: allgather the updated rows to the other n-1 nodes and
			// allreduce the per-node Gram contributions.
			for i := 0; i < n; i++ {
				ob, oe := owned[m][i][0], owned[m][i][1]
				pricer.AllgatherNode(oe-ob, opts.Rank, n)
			}
			grams[m] = dense.Gram(model.Factors[m], 1)
			pricer.GramAllreduce(opts.Rank, n)

			lastK, lastMode = k, m
		}

		inner := kruskal.InnerWithMTTKRP(lastK, model.Factors[lastMode])
		res.RelErr = kruskal.RelErr(xNormSq, inner, kruskal.NormSqFromGrams(grams))
		if opts.Tol > 0 && prevErr-res.RelErr < opts.Tol {
			res.Converged = true
			break
		}
		prevErr = res.RelErr
	}
	res.Comm = pricer.Stats()
	return res, nil
}

// validateRanges checks that explicit mode-0 ranges partition [0, dim).
func validateRanges(ranges [][2]int, nodes, dim int) error {
	if len(ranges) != nodes {
		return fmt.Errorf("dist: %d Mode0Ranges for %d nodes", len(ranges), nodes)
	}
	prev := 0
	for i, r := range ranges {
		if r[0] != prev || r[1] < r[0] || r[1] > dim {
			return fmt.Errorf("dist: Mode0Ranges[%d] = [%d, %d) does not partition [0, %d) after %d",
				i, r[0], r[1], dim, prev)
		}
		prev = r[1]
	}
	if prev != dim {
		return fmt.Errorf("dist: Mode0Ranges end at %d, want %d", prev, dim)
	}
	return nil
}

// BaselineADMMCommBytes prices what the kernel-parallel baseline would have
// communicated during ADMM: one 4-scalar residual allreduce per inner
// iteration per mode (2·(n-1) transfers of 32 bytes each in a flat model).
// The blocked formulation's corresponding figure is zero.
func BaselineADMMCommBytes(nodes, modes, outerIters, innerIters int) int64 {
	if nodes <= 1 {
		return 0
	}
	perIter := int64(2*(nodes-1)) * 32
	return perIter * int64(modes) * int64(outerIters) * int64(innerIters)
}
