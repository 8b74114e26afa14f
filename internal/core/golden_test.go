package core_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"raqo/internal/catalog"
	"raqo/internal/cluster"
	"raqo/internal/core"
	"raqo/internal/execsim"
	"raqo/internal/optimizer/randomized"
	"raqo/internal/plan"
	"raqo/internal/resource"
	"raqo/internal/workload"
)

// update rewrites testdata/golden_decisions.json from the current tree.
// The committed file was generated on the commit *before* the join-graph
// index (ISSUE 14) replaced the string-keyed enumeration kernel, so a
// plain run proves that every decision is bit-identical to that commit's.
// Regenerate only for a change that is meant to alter decisions.
var update = flag.Bool("update", false, "rewrite testdata/golden_decisions.json")

const goldenPath = "testdata/golden_decisions.json"

// goldenDecision pins one planning decision: the chosen joint plan, the
// exact bits of its modeled time and money, and the two deterministic
// search-effort counters of the paper's Figures 12–14.
type goldenDecision struct {
	Name               string `json:"name"`
	Plan               string `json:"plan"`
	TimeBits           uint64 `json:"timeBits"`
	MoneyBits          uint64 `json:"moneyBits"`
	PlansConsidered    int    `json:"plansConsidered"`
	ResourceIterations int64  `json:"resourceIterations"`
}

// goldenRandomized is the randomized planner's search budget in the
// benchmark's plan_scale workload.
var goldenRandomized = randomized.Options{Iterations: 3, Seeds: 4, MutationsPerPlan: 2}

// goldenRegimes are the two optimizer configurations the pinned decisions
// are planned under.
var goldenRegimes = []struct {
	name        string
	thresholdGB float64
	memo        bool
}{
	{"plan_scale", 0.01, false}, // the benchmark's cold-planning regime
	{"served", 1, true},         // what server.New installs
}

// goldenQuery is one query of the pinned set with the planner it runs on.
type goldenQuery struct {
	name    string
	planner core.PlannerKind
	q       *plan.Query
}

// goldenQueries builds the pinned query set: the four TPC-H evaluation
// queries on both planners, then a seeded pool over a 30- and a 100-table
// random schema (Selinger at 8/10/12 relations, randomized at 20/30).
func goldenQueries(t *testing.T) []goldenQuery {
	t.Helper()
	var out []goldenQuery
	tpch := catalog.TPCH(100)
	for _, planner := range []core.PlannerKind{core.Selinger, core.FastRandomized} {
		for _, name := range []string{workload.Q12, workload.Q3, workload.Q2, workload.All} {
			q, err := workload.TPCHQuery(tpch, name)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, goldenQuery{fmt.Sprintf("tpch/%s/%s", planner, name), planner, q})
		}
	}
	rng := rand.New(rand.NewSource(1906))
	for _, tables := range []int{30, 100} {
		s, err := catalog.Random(rng, tables, catalog.DefaultRandomConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []struct {
			planner core.PlannerKind
			size    int
		}{
			{core.Selinger, 8}, {core.Selinger, 10}, {core.Selinger, 12},
			{core.FastRandomized, 20}, {core.FastRandomized, 30},
		} {
			q, err := workload.RandomQuery(rng, s, k.size)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, goldenQuery{fmt.Sprintf("random%d/%s/%d", tables, k.planner, k.size), k.planner, q})
		}
	}
	return out
}

// goldenDecisions plans the pinned set under each regime, one optimizer
// per (regime, planner) so the resource-plan cache and the cost memo warm
// across queries in a fixed order.
func goldenDecisions(t *testing.T) []goldenDecision {
	t.Helper()
	models, err := workload.TrainedModels(execsim.Hive())
	if err != nil {
		t.Fatal(err)
	}
	queries := goldenQueries(t)
	var out []goldenDecision
	for _, regime := range goldenRegimes {
		opts := map[core.PlannerKind]*core.Optimizer{}
		for _, planner := range []core.PlannerKind{core.Selinger, core.FastRandomized} {
			o, err := core.New(cluster.Default(), core.Options{
				Planner:      planner,
				Models:       models,
				Resource:     &resource.Cache{Inner: &resource.HillClimb{}, Mode: resource.NearestNeighbor, ThresholdGB: regime.thresholdGB},
				Seed:         7,
				Randomized:   goldenRandomized,
				MemoizeCosts: regime.memo,
			})
			if err != nil {
				t.Fatal(err)
			}
			opts[planner] = o
		}
		for _, gq := range queries {
			d, err := opts[gq.planner].Optimize(gq.q)
			if err != nil {
				t.Fatalf("%s/%s: %v", regime.name, gq.name, err)
			}
			if err := d.Plan.Validate(gq.q); err != nil {
				t.Fatalf("%s/%s: %v", regime.name, gq.name, err)
			}
			out = append(out, goldenDecision{
				Name:               regime.name + "/" + gq.name,
				Plan:               d.Plan.SignatureWithResources(),
				TimeBits:           math.Float64bits(d.Time),
				MoneyBits:          math.Float64bits(float64(d.Money)),
				PlansConsidered:    d.PlansConsidered,
				ResourceIterations: d.ResourceIterations,
			})
		}
	}
	return out
}

// TestGoldenDecisions holds every pinned decision equal, bit for bit, to
// the committed file.
func TestGoldenDecisions(t *testing.T) {
	got := goldenDecisions(t)
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d decisions to %s", len(got), goldenPath)
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	var want []goldenDecision
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d decisions, golden file has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("decision %s drifted:\n got %+v\nwant %+v", want[i].Name, got[i], want[i])
		}
	}
}
