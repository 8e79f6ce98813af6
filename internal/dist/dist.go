// Package dist holds the node-local building blocks of distributed-memory
// AO-ADMM, which the networked engine (internal/distnet) runs on every
// worker: row partitioning, the partial MTTKRP, the communication-free
// owned-rows ADMM step, and the pricing of every collective. It substantiates
// the paper's §IV-B remark that the blockwise formulation extends to
// distributed memory with "no communication ... beyond the MTTKRP
// operation".
//
// The decomposition is coarse-grained and 1-D (Smith & Karypis, IPDPS'16
// [23] family): the tensor's non-zeros are partitioned by mode-0 slice, and
// every factor's rows are partitioned contiguously so each node owns the
// rows of every mode it updates. Per outer iteration and mode:
//
//  1. each node computes a partial MTTKRP from its local non-zeros;
//  2. the partials are reduce-scattered so each node holds the complete K
//     rows it owns (communication: the non-owned portion of each partial);
//  3. each node runs blocked ADMM on its owned rows — zero communication,
//     because every block's convergence is purely local (the paper's
//     claim); the baseline variant would need a residual allreduce per
//     inner iteration, which BaselineADMMCommBytes prices for comparison;
//  4. the updated rows are allgathered so the next MTTKRP sees full
//     factors, and per-node Gram contributions are allreduced.
//
// A Pricer counts the bytes every collective moves in a flat peer-to-peer
// model, so the engine reports the communication-free ADMM property as a
// number. The engine's tests keep a one-process reference of its loop and
// compare against it bit for bit.
package dist

// CommStats tallies the collective traffic a Pricer counts.
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
