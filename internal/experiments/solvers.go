package experiments

import (
	"fmt"

	"aoadmm/internal/core"
	"aoadmm/internal/datasets"
	"aoadmm/internal/prox"
	"aoadmm/internal/stats"
)

// Solvers compares the non-negative solvers built on the same MTTKRP/Gram
// substrate — blocked AO-ADMM (the paper's method), CP-HALS (related work
// [5]), and unconstrained CPD-ALS as the fit ceiling — at a matched
// outer-iteration budget. This is an extension experiment: the paper cites
// these methods (§III-A) but compares only against its own baseline.
func Solvers(cfg Config) error {
	cfg.fill()
	tbl := &stats.Table{Headers: []string{
		"dataset", "solver", "rel_err", "outer_iters", "seconds",
	}}
	for _, name := range cfg.Datasets {
		x, err := datasets.Generate(name, cfg.Scale)
		if err != nil {
			return err
		}
		for _, sv := range []struct {
			name    string
			variant core.Variant
		}{
			{"aoadmm-blocked", core.Blocked},
			{"hals", core.HALS},
			{"als-unconstrained", core.ALS},
		} {
			res, err := core.Factorize(x, core.Options{
				Rank:          cfg.Rank,
				Variant:       sv.variant,
				Constraints:   []prox.Operator{prox.NonNegative{}},
				MaxOuterIters: cfg.MaxOuter,
				InnerMaxIters: cfg.InnerMaxIters,
				Threads:       cfg.Threads,
				Seed:          1,
			})
			if err != nil {
				return fmt.Errorf("solvers %s %s: %w", name, sv.variant, err)
			}
			tbl.AddRow(name, sv.name,
				fmt.Sprintf("%.4f", res.RelErr),
				fmt.Sprintf("%d", res.OuterIters),
				fmt.Sprintf("%.2f", res.Trace.Final().Elapsed.Seconds()))
		}
	}
	fmt.Fprintf(cfg.Out, "\n== Solver comparison (extension): non-negative CPD at rank %d ==\n", cfg.Rank)
	if err := tbl.Render(cfg.Out); err != nil {
		return err
	}
	return cfg.writeCSV("solvers.csv", tbl.WriteCSV)
}
