package distnet

import (
	"aoadmm/internal/admm"
	"aoadmm/internal/csf"
	"aoadmm/internal/dense"
	"aoadmm/internal/dist"
	"aoadmm/internal/kruskal"
	"aoadmm/internal/prox"
	"aoadmm/internal/tensor"
)

// refResult is the outcome of referenceRun.
type refResult struct {
	Factors *kruskal.Tensor
	RelErr  float64
	Comm    dist.CommStats
}

// referenceRun is the engine's collective loop written out in one process:
// mode-0 rows are owned per the given ranges and every other mode is split
// evenly; per outer iteration and mode, each node's partial MTTKRP is
// reduced into K in node order (pricing every non-zero non-owned row), each
// node runs blocked ADMM on its owned rows, and the owned rows are priced
// as an allgather plus one Gram allreduce. A failure-free networked job on
// the same non-zeros must reproduce its factors, relative error and
// CommStats bit for bit. cons must hold one operator per mode.
func referenceRun(x *tensor.COO, mode0 [][2]int, rank, iters, blockSize int, cons []prox.Operator, seed int64) refResult {
	order, n := x.Order(), len(mode0)
	owned := make([][][2]int, order)
	owned[0] = mode0
	for m := 1; m < order; m++ {
		owned[m] = dist.Partition(x.Dims[m], n)
	}
	trees := make([]*csf.Set, n)
	for i, part := range splitByMode0(x, mode0) {
		trees[i] = csf.BuildSet(part)
	}

	xNormSq := x.NormSq()
	model := kruskal.Init(x.Dims, rank, seed, xNormSq, 1)
	duals := make([]*dense.Matrix, order)
	grams := make([]*dense.Matrix, order)
	for m := 0; m < order; m++ {
		duals[m] = dense.New(x.Dims[m], rank)
		grams[m] = dense.Gram(model.Factors[m], 1)
	}
	pricer := &dist.Pricer{}

	var relErr float64
	for outer := 1; outer <= iters; outer++ {
		var k *dense.Matrix
		for m := 0; m < order; m++ {
			g := dense.GramProduct(grams, m)
			k = dense.New(x.Dims[m], rank)
			for i := 0; i < n; i++ {
				p := dist.PartialMTTKRP(trees[i].Tree(m), model.Factors, x.Dims[m], rank)
				ob, oe := owned[m][i][0], owned[m][i][1]
				for r := 0; r < x.Dims[m]; r++ {
					src := p.Row(r)
					if allZero(src) {
						continue
					}
					dst := k.Row(r)
					for j, v := range src {
						dst[j] += v
					}
					if r < ob || r >= oe {
						pricer.ReduceScatterRow(rank)
					}
				}
			}
			cfg := admm.Config{Prox: cons[m], BlockSize: blockSize, Threads: 1}
			for i := 0; i < n; i++ {
				ob, oe := owned[m][i][0], owned[m][i][1]
				err := dist.LocalADMM(model.Factors[m].RowBlock(ob, oe), duals[m].RowBlock(ob, oe),
					k.RowBlock(ob, oe), g, cfg)
				if err != nil {
					panic(err)
				}
				pricer.AllgatherNode(oe-ob, rank, n)
			}
			grams[m] = dense.Gram(model.Factors[m], 1)
			pricer.GramAllreduce(rank, n)
		}
		inner := kruskal.InnerWithMTTKRP(k, model.Factors[order-1])
		relErr = kruskal.RelErr(xNormSq, inner, kruskal.NormSqFromGrams(grams))
	}
	return refResult{Factors: model, RelErr: relErr, Comm: pricer.Stats()}
}

func allZero(row []float64) bool {
	for _, v := range row {
		if v != 0 {
			return false
		}
	}
	return true
}

// splitByMode0 partitions a tensor's non-zeros by the owner of their mode-0
// slice under contiguous ownership ranges. The parts keep the full global
// dims, so factor indices remain global.
func splitByMode0(x *tensor.COO, owned [][2]int) []*tensor.COO {
	parts := make([]*tensor.COO, len(owned))
	for i := range parts {
		parts[i] = tensor.NewCOO(x.Dims, 0)
	}
	ownerOf := make([]int, x.Dims[0])
	for node, span := range owned {
		for r := span[0]; r < span[1]; r++ {
			ownerOf[r] = node
		}
	}
	coord := make([]int, x.Order())
	for p := 0; p < x.NNZ(); p++ {
		for m := range coord {
			coord[m] = int(x.Inds[m][p])
		}
		parts[ownerOf[coord[0]]].Append(coord, x.Vals[p])
	}
	return parts
}
