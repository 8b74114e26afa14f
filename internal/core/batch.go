package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"raqo/internal/plan"
)

// OptimizeBatch jointly optimizes a workload of queries concurrently, each
// exactly as Optimize would: same conditions, same per-query derived seed,
// same joint query/resource planning. parallelism bounds the worker pool;
// zero or negative selects runtime.NumCPU(). Decisions come back indexed
// like queries.
//
// Per-query metrics stay exact under concurrency: each query's coster
// attributes resource iterations to its own calls, and a shared
// resource.Cache deduplicates concurrent misses, so a batch over TPC-H
// yields plans identical to running the queries sequentially (under the
// default deterministic resource planners).
//
// If some queries fail, the returned slice still carries every successful
// decision (failed slots are nil) and the error joins the per-query
// failures.
func (o *Optimizer) OptimizeBatch(queries []*plan.Query, parallelism int) ([]*Decision, error) {
	return o.OptimizeBatchCtx(context.Background(), queries, parallelism)
}

// OptimizeBatchCtx is OptimizeBatch with cancellation: ctx is threaded
// into every per-query planning search, so cancelling it stops in-flight
// searches promptly and fails not-yet-started queries with ctx's error.
func (o *Optimizer) OptimizeBatchCtx(ctx context.Context, queries []*plan.Query, parallelism int) ([]*Decision, error) {
	if len(queries) == 0 {
		return nil, nil
	}
	workers := parallelism
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(queries) {
		workers = len(queries)
	}
	decisions := make([]*Decision, len(queries))
	errs := make([]error, len(queries))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(queries) {
					return
				}
				d, err := o.OptimizeCtx(ctx, queries[i])
				if err != nil {
					errs[i] = fmt.Errorf("core: query %d (%v): %w", i, queries[i].Rels, err)
					continue
				}
				decisions[i] = d
			}
		}()
	}
	wg.Wait()
	return decisions, errors.Join(errs...)
}
