// Leaf-structure cost model: the paper's first future-work item (§VI),
// automatically selecting the data structure for the sparse leaf factor
// during MTTKRP — DENSE, CSR, or the hybrid CSR-H — from the tensor and
// factor properties, instead of a fixed density threshold.
//
// The model prices one outer iteration's worth of leaf-factor accesses for
// each candidate structure:
//
//	DENSE:  every access streams a full F-length row (one latency event,
//	        hardware prefetch covers the rest).
//	CSR:    bytes shrink with density but each row costs three dependent
//	        fetches (row extent, indices, values) — higher latency.
//	CSR-H:  the dense panel is fetched with one latency event and the CSR
//	        tail shrinks further, but panel zeros are paid for; the panel's
//	        effectiveness decays as the mode length grows, because each
//	        row is touched fewer times and the panel stops being cache
//	        resident (the paper's Reddit-vs-Amazon observation).
//
// Construction cost (one pass over the dense factor per rebuild) is
// amortized over the ADMM iterations of the same outer iteration, mirroring
// the paper's O(K·F) vs O(F²·I) argument.
package perfmodel

// Structure selects the leaf-factor representation used during MTTKRP when a
// factor has gone sparse (§IV-C / Table II).
type Structure int

// MTTKRP leaf-factor structures.
const (
	// StructDense never compresses factors (Table II's DENSE row).
	StructDense Structure = iota
	// StructCSR stores sparse factors in CSR (Table II's CSR row).
	StructCSR
	// StructHybrid stores sparse factors in the hybrid dense+CSR form
	// (Table II's CSR-H row).
	StructHybrid
	// StructAuto picks DENSE, CSR, or CSR-H per MTTKRP call from the leaf
	// factor's current sparsity profile with the default LeafModel. The
	// model's choice replaces the density threshold.
	StructAuto
)

// String names the structure for logs and experiment output.
func (s Structure) String() string {
	switch s {
	case StructCSR:
		return "CSR"
	case StructHybrid:
		return "CSR-H"
	case StructAuto:
		return "AUTO"
	default:
		return "DENSE"
	}
}

// LeafProfile captures the quantities the selector needs. All counts are per
// MTTKRP invocation of one mode.
type LeafProfile struct {
	// Rank is F.
	Rank int
	// ModeLength is the leaf factor's row count (the length of the mode the
	// factor represents, K in the paper's discussion).
	ModeLength int
	// Accesses is the number of leaf-factor row accesses, i.e. the tensor's
	// non-zero count for 3-mode tensors.
	Accesses int64
	// Density is the leaf factor's current non-zero fraction.
	Density float64
	// DenseColumnShare is the fraction of factor non-zeros concentrated in
	// columns denser than the column average (drives the CSR-H panel's
	// usefulness). 0 disables the hybrid's advantage; values near 1 mean a
	// few dense columns carry everything.
	DenseColumnShare float64
}

// LeafCosts are the modeled per-MTTKRP costs (arbitrary units: cache-line
// fetches plus latency-weighted events).
type LeafCosts struct {
	Dense, CSR, Hybrid float64
}

// LeafModel holds the cost constants. Zero value is unusable; use
// DefaultLeafModel.
type LeafModel struct {
	// LatencyWeight is the cost of one dependent memory fetch relative to
	// one streamed 8-byte word.
	LatencyWeight float64
	// CSRFetches is the number of dependent fetches a CSR row access incurs
	// (extent, indices, values).
	CSRFetches float64
	// HybridFetches is the number of dependent fetches a hybrid row access
	// incurs (panel is sequential, tail adds one).
	HybridFetches float64
	// PanelResidencyRows is the mode length at which the hybrid panel stops
	// fitting in cache and its advantage fades.
	PanelResidencyRows float64
	// BuildAmortization is the number of MTTKRP-equivalent uses one build
	// is amortized over (ADMM iterations per outer iteration).
	BuildAmortization float64
}

// DefaultLeafModel returns constants that reproduce the paper's empirical
// findings: CSR gainful below ~20% density, CSR-H preferred on the
// shorter-mode Reddit but not the 30x-longer Amazon.
func DefaultLeafModel() LeafModel {
	return LeafModel{
		LatencyWeight:      8,
		CSRFetches:         3,
		HybridFetches:      1.5,
		PanelResidencyRows: 64_000,
		BuildAmortization:  5,
	}
}

// Evaluate prices the three structures for a profile.
func (m LeafModel) Evaluate(p LeafProfile) LeafCosts {
	f := float64(p.Rank)
	acc := float64(p.Accesses)
	rows := float64(p.ModeLength)
	if acc <= 0 || f <= 0 || rows <= 0 {
		return LeafCosts{}
	}

	// DENSE: F words streamed per access + one latency event.
	dense := acc * (f + m.LatencyWeight)

	// Build cost: one pass over the dense factor, amortized.
	build := rows * f / m.BuildAmortization

	// CSR: density·F index+value words (1.5 words per nnz: 8B value + 4B
	// index) + CSRFetches latency events per access.
	csr := acc*(p.Density*f*1.5+m.LatencyWeight*m.CSRFetches) + build

	// CSR-H: the panel holds the dense-column share of non-zeros zero-padded
	// to full column height. With panel nnz = share·density·K·F spread over
	// columns that are ~80% dense, the panel width is
	// d ≈ share·density·F / 0.8 words per row access. The tail holds the
	// remaining non-zeros in CSR. Latency is low while the panel is cache
	// resident; the advantage decays with mode length.
	panelCols := p.DenseColumnShare * p.Density * f / 0.8
	if panelCols > f {
		panelCols = f
	}
	resident := m.PanelResidencyRows / (m.PanelResidencyRows + rows)
	tailNNZ := (1 - p.DenseColumnShare) * p.Density * f
	// Latency starts from CSR's cost; a resident panel saves fetches on the
	// accesses its dense columns cover, while a thrashing panel ADDS one
	// miss per covered access. With no dense columns (share 0) the hybrid
	// degenerates to CSR plus its extra build cost.
	w := p.DenseColumnShare
	latency := m.LatencyWeight * (m.CSRFetches - (m.CSRFetches-m.HybridFetches)*resident*w + (1-resident)*w)
	hybrid := acc*(panelCols+tailNNZ*1.5+latency) + build*1.2 // hybrid build is pricier

	return LeafCosts{Dense: dense, CSR: csr, Hybrid: hybrid}
}

// Choose returns the cheapest structure for the profile: StructDense,
// StructCSR, or StructHybrid, never StructAuto.
func (m LeafModel) Choose(p LeafProfile) Structure {
	c := m.Evaluate(p)
	if c.Dense == 0 && c.CSR == 0 && c.Hybrid == 0 {
		return StructDense
	}
	best := StructDense
	bestCost := c.Dense
	if c.CSR < bestCost {
		best, bestCost = StructCSR, c.CSR
	}
	if c.Hybrid < bestCost {
		best = StructHybrid
	}
	return best
}
