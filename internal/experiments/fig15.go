package experiments

import (
	"fmt"
	"math/rand"

	"raqo/internal/catalog"
	"raqo/internal/cluster"
	"raqo/internal/core"
	"raqo/internal/cost"
	"raqo/internal/optimizer/randomized"
	"raqo/internal/resource"
	"raqo/internal/workload"
)

// fig15Schema builds the 100-table random schema of Section VII-C.
func fig15Schema() (*catalog.Schema, error) {
	return catalog.Random(rand.New(rand.NewSource(715)), 100, catalog.DefaultRandomConfig())
}

// fig15Randomized keeps the randomized planner light enough that the
// 100-way joins plan in milliseconds-to-seconds; the comparison between
// QO, RAQO and cached RAQO is unaffected by the budget.
var fig15Randomized = randomized.Options{Iterations: 3, Seeds: 4, MutationsPerPlan: 2}

// Figure15a scales the schema: random queries of 2 to 100 relations over a
// 100-table schema, comparing plain QO, RAQO with hill climbing, and RAQO
// with hill climbing plus the nearest-neighbor resource-plan cache, all
// over the paper's floored models.
func Figure15a() (*Report, error) {
	s, err := fig15Schema()
	if err != nil {
		return nil, err
	}
	cond := cluster.Default()
	models := cost.PaperModels()
	rng := rand.New(rand.NewSource(1))

	tbl := Table{
		Title:   "planner runtime (ms) over query size, 100-table random schema (FastRandomized)",
		Columns: []string{"query size (#tables)", "QO", "RAQO (HC)", "RAQO (HC+cache)", "cached/QO"},
	}
	var notes []string
	for _, k := range []int{2, 16, 30, 44, 58, 72, 86, 100} {
		q, err := workload.RandomQuery(rng, s, k)
		if err != nil {
			return nil, err
		}
		qo, err := core.New(cond, core.Options{Planner: core.FastRandomized, Seed: 7, Randomized: fig15Randomized, Models: models})
		if err != nil {
			return nil, err
		}
		dQO, err := qo.OptimizeFixed(q, fixedQO)
		if err != nil {
			return nil, err
		}
		raqo, err := core.New(cond, core.Options{
			Planner: core.FastRandomized, Seed: 7, Randomized: fig15Randomized, Models: models,
			Resource: &resource.HillClimb{},
		})
		if err != nil {
			return nil, err
		}
		dHC, err := raqo.Optimize(q)
		if err != nil {
			return nil, err
		}
		cached, err := core.New(cond, core.Options{
			Planner: core.FastRandomized, Seed: 7, Randomized: fig15Randomized, Models: models,
			Resource: &resource.Cache{Inner: &resource.HillClimb{}, Mode: resource.NearestNeighbor, ThresholdGB: 0.01},
		})
		if err != nil {
			return nil, err
		}
		dCache, err := cached.Optimize(q)
		if err != nil {
			return nil, err
		}
		ratio := float64(dCache.Elapsed) / float64(dQO.Elapsed+1)
		tbl.AddRow(fmt.Sprintf("%d", k), ms(dQO.Elapsed), ms(dHC.Elapsed), ms(dCache.Elapsed), f2(ratio)+"x")
		if k == 100 {
			notes = append(notes, fmt.Sprintf(
				"at 100 tables: cache cut resource planning from %d to %d iterations",
				dHC.ResourceIterations, dCache.ResourceIterations))
		}
	}
	return &Report{
		ID:     "fig15a",
		Title:  "RAQO scalability over schema size",
		Tables: []Table{tbl},
		Notes: append(notes,
			"paper: cached RAQO ~6x faster than uncached and within ~1.29x of plain QO on average"),
	}, nil
}

// fig15bConditions are the 40 cluster conditions of the resource-scaling
// experiment: cluster capacity 100 to 100K containers (multiples of 10) by
// container sizes 10 to 100 GB (steps of 10). Step sizes scale with the
// range (Algorithm 1's GetDiscreteSteps) so the climb length stays
// proportional.
func fig15bConditions() []cluster.Conditions {
	var out []cluster.Conditions
	for _, maxC := range []int{100, 1_000, 10_000, 100_000} {
		for maxGB := 10.0; maxGB <= 100; maxGB += 10 {
			// Containers step by 1 up to 20K clusters, then coarser
			// (Algorithm 1's GetDiscreteSteps); sizes always step by 1 GB.
			// The climb length therefore grows with both axes, which is
			// what makes the resource-planning overhead climb with the
			// cluster size as in the paper.
			step := maxC / 20_000
			if step < 1 {
				step = 1
			}
			out = append(out, cluster.Conditions{
				MinContainers: 1, MaxContainers: maxC, ContainerStep: step,
				MinContainerGB: 1, MaxContainerGB: maxGB, GBStep: 1,
			})
		}
	}
	return out
}

// Figure15b scales the resource space for the 100-table join: planner
// runtimes for plain QO, RAQO with per-query caching, and RAQO with the
// cache retained across queries.
func Figure15b() (*Report, error) {
	s, err := fig15Schema()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(2))
	q, err := workload.RandomQuery(rng, s, 100)
	if err != nil {
		return nil, err
	}

	tbl := Table{
		Title:   "planner runtime (ms) over cluster conditions, 100-table join",
		Columns: []string{"max containers", "max GB", "QO", "RAQO (HC)", "RAQO (cache across queries)", "HC resource iters"},
	}
	// The paper's planner ran its published models unfloored, which is what
	// sends each climb to the cluster boundary and makes the overhead grow
	// with the resource space (see cost.Regression.Unfloored).
	models := cost.PaperModelsUnfloored()
	// The across-queries cache survives the whole sweep.
	sharedCache := &resource.Cache{Inner: &resource.HillClimb{}, Mode: resource.NearestNeighbor, ThresholdGB: 0.01}
	var notes []string
	var overhead10K, overhead100K float64
	for _, cond := range fig15bConditions() {
		qo, err := core.New(cond, core.Options{Planner: core.FastRandomized, Seed: 7, Randomized: fig15Randomized, Models: models})
		if err != nil {
			return nil, err
		}
		fixed := cond.MinResources()
		fixed.Containers = cond.MaxContainers / 10
		if fixed.Containers < 1 {
			fixed.Containers = 1
		}
		fixed = cond.Clamp(fixed)
		dQO, err := qo.OptimizeFixed(q, fixed)
		if err != nil {
			return nil, err
		}

		plain, err := core.New(cond, core.Options{
			Planner: core.FastRandomized, Seed: 7, Randomized: fig15Randomized, Models: models,
			Resource: &resource.HillClimb{},
		})
		if err != nil {
			return nil, err
		}
		dPlain, err := plain.Optimize(q)
		if err != nil {
			return nil, err
		}

		shared, err := core.New(cond, core.Options{
			Planner: core.FastRandomized, Seed: 7, Randomized: fig15Randomized, Models: models,
			Resource: sharedCache,
		})
		if err != nil {
			return nil, err
		}
		dShared, err := shared.Optimize(q)
		if err != nil {
			return nil, err
		}

		tbl.AddRow(fmt.Sprintf("%d", cond.MaxContainers), f1(cond.MaxContainerGB),
			ms(dQO.Elapsed), ms(dPlain.Elapsed), ms(dShared.Elapsed),
			fmt.Sprintf("%d", dPlain.ResourceIterations))
		ratio := float64(dPlain.Elapsed) / float64(dQO.Elapsed+1)
		switch cond.MaxContainers {
		case 10_000:
			overhead10K += ratio / 10
		case 100_000:
			overhead100K += ratio / 10
		}
	}
	notes = append(notes,
		fmt.Sprintf("mean RAQO/QO runtime ratio: %.2fx at 10K containers, %.2fx at 100K", overhead10K, overhead100K),
		"paper: overhead negligible to 1K containers, ~50% at 10K, ~5x beyond 10K, runtimes still sub-second; across-query caching ~30% faster after 10K",
	)
	return &Report{
		ID:     "fig15b",
		Title:  "RAQO scalability over the resource-configuration space",
		Tables: []Table{tbl},
		Notes:  notes,
	}, nil
}
