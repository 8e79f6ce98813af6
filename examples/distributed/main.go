// Distributed: run AO-ADMM on the networked engine — a coordinator and
// workers talking the distnet wire protocol over loopback TCP — across node
// counts, and print the communication each phase costs. The inner ADMM moves
// zero bytes at every node count, the paper's §IV-B observation on real
// sockets: blocked ADMM needs no communication beyond the MTTKRP exchange.
//
// Run with:
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"aoadmm"
	"aoadmm/internal/dist"
	"aoadmm/internal/distnet"
	"aoadmm/internal/ooc"
)

const (
	rank  = 8
	iters = 10
	seed  = 1
)

var nodeCounts = []int{1, 2, 4, 8, 16}

func main() {
	x, err := aoadmm.Dataset("nell", aoadmm.ScaleSmall)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("tensor:", x)

	// The networked engine streams from a shard store; convert once.
	dir, err := os.MkdirTemp("", "aoadmm-dist-example-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	st, err := ooc.ConvertCOO(x, filepath.Join(dir, "x.aoshard"), ooc.ConvertOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// An in-process coordinator plus worker goroutines: the same code paths
	// `aoadmmd -role coordinator|worker` runs as separate processes. Each
	// job spreads over the first `nodes` of them.
	c, err := distnet.StartLocal(nodeCounts[len(nodeCounts)-1], distnet.Config{}, distnet.WorkerConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	fmt.Printf("coordinator on %s, %d workers joined\n", c.Coord.Addr(), len(c.Workers))

	fmt.Printf("\n%-6s %10s %12s %12s %12s %16s %10s\n",
		"nodes", "rel err", "mttkrp MB", "factor MB", "admm bytes", "baseline admm KB", "wire MB")
	for _, nodes := range nodeCounts {
		res, err := c.Coord.RunJob(distnet.JobOptions{
			JobID:          fmt.Sprintf("example-%d", nodes),
			ShardDir:       st.Dir(),
			Rank:           rank,
			Constraint:     "nonneg",
			MaxOuterIters:  iters,
			Seed:           seed,
			Workers:        nodes,
			WaitForWorkers: nodes,
		})
		if err != nil {
			log.Fatal(err)
		}
		baseline := dist.BaselineADMMCommBytes(nodes, x.Order(), res.OuterIters, 10)
		fmt.Printf("%-6d %10.4f %12.2f %12.2f %12d %16.1f %10.2f\n",
			nodes, res.RelErr,
			float64(res.Comm.MTTKRPBytes)/1e6,
			float64(res.Comm.FactorBytes)/1e6,
			res.Comm.ADMMBytes,
			float64(baseline)/1e3,
			float64(res.WireBytesSent+res.WireBytesReceived)/1e6)
		if res.Comm.ADMMBytes != 0 {
			log.Fatalf("nodes=%d: inner ADMM moved %d bytes; the blocked variant must not communicate",
				nodes, res.Comm.ADMMBytes)
		}
	}
	fmt.Println("\nblocked ADMM moves zero bytes during the inner iterations at every node")
	fmt.Println("count; only the MTTKRP reduce-scatter and the factor allgather communicate.")
	fmt.Println("wire MB is the physical TCP traffic, control frames included.")
}
