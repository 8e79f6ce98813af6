// Node-local building blocks of the distributed AO-ADMM engine, shared by
// the in-process simulator (Run, this package) and the networked
// coordinator/worker engine (internal/distnet). Both execute exactly the
// same per-node arithmetic — the simulator is the numerical and
// communication-cost oracle for the real engine — so everything a "node"
// does lives here: model initialization, row partitioning, non-zero
// placement, the partial MTTKRP, the communication-free owned-rows ADMM
// step, and the collective pricing rules.
package dist

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"aoadmm/internal/admm"
	"aoadmm/internal/alto"
	"aoadmm/internal/csf"
	"aoadmm/internal/dense"
	"aoadmm/internal/kruskal"
	"aoadmm/internal/mttkrp"
	"aoadmm/internal/perfmodel"
	"aoadmm/internal/prox"
	"aoadmm/internal/tensor"
)

// InitModel builds the replicated initial factor state every participant
// starts from: kruskal.Random over a per-run seeded generator — the same
// construction core.Factorize uses, never the shared package-level
// math/rand source — followed by the norm-matched rescale of the random
// factors. Seed-for-seed it reproduces core.Factorize's initialization, so
// simulated, networked, and shared-memory runs all start from identical
// factors and their trajectories can be compared bit for bit.
func InitModel(dims []int, rank int, seed int64, xNormSq float64) *kruskal.Tensor {
	model := kruskal.Random(dims, rank, rand.New(rand.NewSource(seed)))
	if m0 := model.NormSq(1); m0 > 0 && xNormSq > 0 {
		s := math.Pow(xNormSq/m0, 0.5/float64(len(dims)))
		for _, f := range model.Factors {
			dense.Scale(f, s)
		}
	}
	return model
}

// Partition splits n rows into parts contiguous, near-equal half-open
// ranges [begin, end); the first n%parts ranges are one row longer.
func Partition(n, parts int) [][2]int {
	out := make([][2]int, parts)
	q, r := n/parts, n%parts
	begin := 0
	for i := 0; i < parts; i++ {
		end := begin + q
		if i < r {
			end++
		}
		out[i] = [2]int{begin, end}
		begin = end
	}
	return out
}

// SplitByMode0 partitions a tensor's non-zeros by the owner of their mode-0
// slice under the given contiguous ownership ranges. Returned parts carry
// the full global dims, so factor indices remain global.
func SplitByMode0(x *tensor.COO, owned [][2]int) []*tensor.COO {
	n := len(owned)
	parts := make([]*tensor.COO, n)
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

// PartialMTTKRP computes one node's partial MTTKRP for an output mode with
// rows global rows: the contribution of the node's local non-zeros, indexed
// globally, ready for the reduce-scatter.
func PartialMTTKRP(tree *csf.Tensor, factors []*dense.Matrix, rows, rank int) *dense.Matrix {
	out := dense.New(rows, rank)
	if tree.NNZ() == 0 {
		return out
	}
	mttkrp.Compute(tree, factors, out, nil, mttkrp.Options{Threads: 1})
	return out
}

// LocalKernel abstracts a node's compiled MTTKRP representation: the
// shard-range non-zeros compiled once at assignment time into either
// per-mode CSF trees or the ALTO linearized format. The two kernels agree to
// floating-point summation order (parity-tested to 1e-12 relative), so a
// cluster may mix kernel formats across workers — but a run that must match
// the in-process simulator bit for bit needs the CSF default everywhere.
type LocalKernel interface {
	// PartialMTTKRP computes the node's mode-m partial product over rows
	// global rows, ready for the reduce-scatter.
	PartialMTTKRP(m int, factors []*dense.Matrix, rows, rank int) *dense.Matrix
	// NNZ is the node-local non-zero count.
	NNZ() int
	// Format names the compiled representation ("csf" or "alto").
	Format() string
}

// NewLocalKernel compiles a node's partition into the named kernel format:
// "" or "csf" builds per-mode CSF trees (the default), "alto" the linearized
// format, and "auto" asks the perfmodel cost model, which sees this node's
// local sparsity structure — a skewed partition may pick differently than
// its neighbors. The partition is owned by the call and may be sorted in
// place. Unknown formats fail loudly.
func NewLocalKernel(part *tensor.COO, format string, rank int) (LocalKernel, error) {
	resolved, err := perfmodel.ResolveKernelFormat(format, part, rank, 1)
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	// The linearized builder rejects empty tensors; an empty partition
	// contributes all-zero partials either way.
	if resolved == perfmodel.FormatCSF || part.NNZ() == 0 {
		return &csfKernel{set: csf.BuildSet(part), nnz: part.NNZ()}, nil
	}
	t, err := alto.Build(part, alto.Options{})
	if err != nil {
		return nil, fmt.Errorf("dist: alto kernel: %w", err)
	}
	return &altoKernel{t: t}, nil
}

type csfKernel struct {
	set *csf.Set
	nnz int
}

func (k *csfKernel) PartialMTTKRP(m int, factors []*dense.Matrix, rows, rank int) *dense.Matrix {
	return PartialMTTKRP(k.set.Tree(m), factors, rows, rank)
}

func (k *csfKernel) NNZ() int       { return k.nnz }
func (k *csfKernel) Format() string { return perfmodel.FormatCSF }

type altoKernel struct {
	t *alto.Tensor
}

func (k *altoKernel) PartialMTTKRP(m int, factors []*dense.Matrix, rows, rank int) *dense.Matrix {
	out := dense.New(rows, rank)
	k.t.MTTKRP(m, factors, out, mttkrp.Options{Threads: 1})
	return out
}

func (k *altoKernel) NNZ() int       { return k.t.NNZ() }
func (k *altoKernel) Format() string { return perfmodel.FormatALTO }

// LocalADMM runs the communication-free blocked ADMM step on one node's
// owned row block (the paper's §IV-B property: every block's convergence is
// purely local). factor, dual, and k are the node's owned slices — rows
// [lo, hi) of the global matrices — and are updated in place.
func LocalADMM(factor, dual, k, g *dense.Matrix, cfg admm.Config) error {
	if factor.Rows == 0 {
		return nil
	}
	_, err := admm.RunBlocked(factor, dual, k, g, nil, cfg)
	return err
}

// GramProduct returns the Hadamard product of every Gram matrix except
// grams[skip] — the (G) the mode-skip ADMM solves against.
func GramProduct(grams []*dense.Matrix, skip int) *dense.Matrix {
	var out *dense.Matrix
	for m, g := range grams {
		if m == skip {
			continue
		}
		if out == nil {
			out = g.Clone()
		} else {
			dense.Hadamard(out, out, g)
		}
	}
	return out
}

// BroadcastConstraints expands a 0/1/order-length constraint slice to one
// operator per mode, mirroring core.Options semantics.
func BroadcastConstraints(cs []prox.Operator, order int) ([]prox.Operator, error) {
	switch len(cs) {
	case 0:
		out := make([]prox.Operator, order)
		for i := range out {
			out[i] = prox.Unconstrained{}
		}
		return out, nil
	case 1:
		out := make([]prox.Operator, order)
		for i := range out {
			out[i] = cs[0]
		}
		return out, nil
	case order:
		return cs, nil
	default:
		return nil, fmt.Errorf("dist: %d constraints for order %d", len(cs), order)
	}
}

// Pricer applies the simulator's collective pricing rules to a CommStats.
// The networked engine calls exactly the same methods at exactly the same
// points as the simulator, so for an identical (tensor, nodes, rank,
// placement) run both report identical byte counts — the schema prices the
// logical collective volume (what a flat peer-to-peer reduce-scatter /
// allgather / allreduce would move), independent of the physical topology
// carrying it.
type Pricer struct {
	mu sync.Mutex
	c  CommStats
}

func (p *Pricer) count(kind *int64, bytes int64) {
	p.mu.Lock()
	*kind += bytes
	p.c.Messages++
	p.mu.Unlock()
}

// ReduceScatterRow prices one partial-MTTKRP row moved to its owner: a row
// whose partial is non-zero on a node that does not own it.
func (p *Pricer) ReduceScatterRow(rank int) {
	p.count(&p.c.MTTKRPBytes, int64(rank*8))
}

// AllgatherNode prices one node's updated factor rows broadcast to the
// other nodes-1 participants.
func (p *Pricer) AllgatherNode(rows, rank, nodes int) {
	p.count(&p.c.FactorBytes, int64(rows)*int64(rank*8)*int64(nodes-1))
}

// GramAllreduce prices one mode's F x F Gram allreduce (reduce + broadcast
// in a flat model).
func (p *Pricer) GramAllreduce(rank, nodes int) {
	p.count(&p.c.GramBytes, int64(rank*rank*8)*int64(nodes-1)*2)
}

// ADMMBytes prices inner-ADMM communication. The blocked formulation never
// calls it — the §IV-B property — but the method exists so a baseline
// implementation would be priced in the same schema.
func (p *Pricer) ADMMBytes(bytes int64) {
	p.count(&p.c.ADMMBytes, bytes)
}

// Stats returns the accumulated tally.
func (p *Pricer) Stats() CommStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.c
}
