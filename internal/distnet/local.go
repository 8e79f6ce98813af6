package distnet

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// LocalCluster is a coordinator on loopback TCP with in-process workers
// dialed into it: the same code paths `aoadmmd -role coordinator|worker`
// runs as separate processes, in one process.
type LocalCluster struct {
	Coord   *Coordinator
	Workers []*Worker

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// StartLocal starts a coordinator on 127.0.0.1:0 and n workers named w0,
// w1, ..., and returns once all n have joined. cfg and wcfg carry the rest
// of the configuration (heartbeat pacing, kernel format); their listen and
// dial addresses and the worker names are set here.
func StartLocal(n int, cfg Config, wcfg WorkerConfig) (*LocalCluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("distnet: need >= 1 worker, got %d", n)
	}
	cfg.Listen = "127.0.0.1:0"
	coord, err := Listen(cfg)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &LocalCluster{Coord: coord, cancel: cancel}
	wcfg.CoordinatorAddr = coord.Addr()
	for i := 0; i < n; i++ {
		wc := wcfg
		wc.Name = fmt.Sprintf("w%d", i)
		w := NewWorker(wc)
		c.Workers = append(c.Workers, w)
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			_ = w.Run(ctx) // ends with the context or Close; errors are the shutdown itself
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); len(coord.LiveWorkers()) < n; {
		if time.Now().After(deadline) {
			c.Close()
			return nil, fmt.Errorf("distnet: only %d of %d workers joined", len(coord.LiveWorkers()), n)
		}
		time.Sleep(time.Millisecond)
	}
	return c, nil
}

// Close stops the workers, waits for them, and closes the coordinator.
func (c *LocalCluster) Close() {
	c.cancel()
	for _, w := range c.Workers {
		w.Close()
	}
	c.wg.Wait()
	c.Coord.Close()
}
