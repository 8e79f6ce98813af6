package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	"aoadmm/internal/datasets"
	"aoadmm/internal/dist"
	"aoadmm/internal/distnet"
	"aoadmm/internal/ooc"
	"aoadmm/internal/stats"
)

// DistComm runs the networked engine — a coordinator and workers in this
// process, over loopback TCP — across node counts and reports per-phase
// communication volume, substantiating the paper's §IV-B claim: the blocked
// ADMM phase moves zero bytes, while a baseline ADMM would pay a residual
// allreduce per inner iteration (priced in the last column at the same
// Config.InnerMaxIters budget the workers run).
func DistComm(cfg Config) error {
	cfg.fill()
	nodeCounts := []int{1, 2, 4, 8}
	dir, err := os.MkdirTemp("", "aoadmm-dist-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	c, err := distnet.StartLocal(nodeCounts[len(nodeCounts)-1], distnet.Config{}, distnet.WorkerConfig{})
	if err != nil {
		return err
	}
	defer c.Close()

	tbl := &stats.Table{Headers: []string{
		"dataset", "nodes", "rel_err", "mttkrp_MB", "factor_MB", "gram_MB",
		"blocked_admm_B", "baseline_admm_KB",
	}}
	for _, name := range cfg.Datasets {
		x, err := datasets.Generate(name, cfg.Scale)
		if err != nil {
			return err
		}
		// Workers stream their mode-0 ranges from a shard store.
		st, err := ooc.ConvertCOO(x, filepath.Join(dir, name+".aoshard"), ooc.ConvertOptions{})
		if err != nil {
			return fmt.Errorf("dist %s: %w", name, err)
		}
		for _, nodes := range nodeCounts {
			res, err := c.Coord.RunJob(distnet.JobOptions{
				JobID:          fmt.Sprintf("%s-%d", name, nodes),
				ShardDir:       st.Dir(),
				Rank:           cfg.Rank,
				Constraint:     "nonneg",
				MaxOuterIters:  min(cfg.MaxOuter, 10),
				InnerMaxIters:  cfg.InnerMaxIters,
				Seed:           1,
				Workers:        nodes,
				WaitForWorkers: nodes,
			})
			if err != nil {
				return fmt.Errorf("dist %s nodes=%d: %w", name, nodes, err)
			}
			baseline := dist.BaselineADMMCommBytes(nodes, x.Order(), res.OuterIters, cfg.InnerMaxIters)
			tbl.AddRow(name, fmt.Sprintf("%d", nodes),
				fmt.Sprintf("%.4f", res.RelErr),
				fmt.Sprintf("%.2f", float64(res.Comm.MTTKRPBytes)/1e6),
				fmt.Sprintf("%.2f", float64(res.Comm.FactorBytes)/1e6),
				fmt.Sprintf("%.3f", float64(res.Comm.GramBytes)/1e6),
				fmt.Sprintf("%d", res.Comm.ADMMBytes),
				fmt.Sprintf("%.1f", float64(baseline)/1e3))
		}
	}
	fmt.Fprintf(cfg.Out, "\n== Distributed-memory engine over loopback TCP: communication by phase (§IV-B claim) ==\n")
	if err := tbl.Render(cfg.Out); err != nil {
		return err
	}
	return cfg.writeCSV("dist_comm.csv", tbl.WriteCSV)
}
