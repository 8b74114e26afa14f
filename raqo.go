// Package raqo is a from-scratch reproduction of "Query and Resource
// Optimization: Bridging the Gap" (ICDE 2018; arXiv:1906.06590): joint
// query-and-resource optimization (RAQO) for big data systems.
//
// Instead of picking a query plan first and resources later, a RAQO
// optimizer prices every candidate sub-plan at the resource configuration a
// resource planner chooses for it under the current cluster conditions, and
// emits a joint plan: a physical operator tree whose every join carries its
// own container count and container size.
//
// The package is a facade over the internal packages:
//
//	catalog   table statistics, TPC-H and random schemas, join graphs
//	plan      physical plan trees with per-operator resources
//	cost      learned cost models (paper coefficients + trainable)
//	cluster   cluster conditions, quotas, shared-cluster simulation
//	execsim   the simulated Hive/Spark execution substrate
//	optimizer Selinger and fast-randomized multi-objective planners
//	resource  brute-force / hill-climbing / cached resource planning
//	core      the RAQO optimizer and rule-based RAQO decision trees
//
// Quick start:
//
//	sch := raqo.TPCH(100)
//	q, _ := raqo.NewQuery(sch, "lineitem", "orders", "customer")
//	models, _ := raqo.TrainModels(raqo.Hive())
//	opt, _ := raqo.NewOptimizer(raqo.DefaultConditions(), raqo.Options{Models: models})
//	d, _ := opt.Optimize(q)
//	fmt.Println(d.Plan) // joint query + resource plan
package raqo

import (
	"math/rand"

	"raqo/internal/catalog"
	"raqo/internal/cluster"
	"raqo/internal/core"
	"raqo/internal/cost"
	"raqo/internal/e2e"
	"raqo/internal/execsim"
	"raqo/internal/plan"
	"raqo/internal/units"
	"raqo/internal/workload"
)

// Core planning types.
type (
	// Schema is a set of tables with statistics plus their join graph.
	Schema = catalog.Schema
	// Table describes one relation's statistics.
	Table = catalog.Table
	// Query is a logical join query over a schema.
	Query = plan.Query
	// Plan is a physical operator tree; joins carry Resources annotations.
	Plan = plan.Node
	// Resources is one operator's container count and container size.
	Resources = plan.Resources
	// JoinAlgo is a physical join implementation (SMJ or BHJ).
	JoinAlgo = plan.JoinAlgo
	// Conditions is the discrete resource space the cluster currently
	// offers.
	Conditions = cluster.Conditions
	// Optimizer is the joint resource-and-query optimizer.
	Optimizer = core.Optimizer
	// Options configures an Optimizer.
	Options = core.Options
	// Decision is a joint query/resource plan with planning metrics.
	Decision = core.Decision
	// EngineParams is a calibrated execution-simulator profile.
	EngineParams = execsim.Params
	// ExecResult is a simulated execution outcome.
	ExecResult = execsim.Result
	// Models maps join implementations to cost models.
	Models = cost.Models
	// Pricing converts reserved GB-seconds into money.
	Pricing = cost.Pricing
	// Dollars is a monetary amount.
	Dollars = units.Dollars
	// Rule picks join implementations (rule-based RAQO).
	Rule = core.Rule
	// TreeRule is a learned resource-aware decision tree rule.
	TreeRule = core.TreeRule
	// RobustDecision is the outcome of robust joint optimization across
	// several cluster-condition scenarios.
	RobustDecision = core.RobustDecision
	// WorkloadReport compares default practice with RAQO over a workload.
	WorkloadReport = e2e.WorkloadReport
)

// Join operator implementations.
const (
	SMJ = plan.SMJ // shuffle sort-merge join
	BHJ = plan.BHJ // broadcast hash join
)

// Query planner kinds.
const (
	Selinger       = core.Selinger
	FastRandomized = core.FastRandomized
)

// Robust optimization objectives.
const (
	WorstCase = core.WorstCase
	Average   = core.Average
)

// TPCH builds the TPC-H schema at the given scale factor.
func TPCH(sf float64) *Schema { return catalog.TPCH(sf) }

// RandomSchema generates the paper's random schema with n tables.
func RandomSchema(seed int64, n int) (*Schema, error) {
	return catalog.Random(rand.New(rand.NewSource(seed)), n, catalog.DefaultRandomConfig())
}

// NewQuery validates a join query over the schema's join graph.
func NewQuery(s *Schema, relations ...string) (*Query, error) {
	return plan.NewQuery(s, relations...)
}

// TPCHQuery returns one of the paper's evaluation queries: "Q12", "Q3",
// "Q2" or "All".
func TPCHQuery(s *Schema, name string) (*Query, error) { return workload.TPCHQuery(s, name) }

// DefaultConditions returns the paper's evaluation cluster: 100 containers
// of up to 10 GB, 1-unit steps on both axes.
func DefaultConditions() Conditions { return cluster.Default() }

// NewOptimizer builds a RAQO optimizer for the given cluster conditions.
// opts.Models is required (see TrainModels); the other zero Options select
// Selinger planning with hill-climbing resource planning.
func NewOptimizer(cond Conditions, opts Options) (*Optimizer, error) {
	return core.New(cond, opts)
}

// TrainModels profiles the given engine on the execution simulator and
// fits fresh SMJ/BHJ regression models — the paper's full pipeline.
func TrainModels(engine EngineParams) (*Models, error) { return workload.TrainedModels(engine) }

// DefaultPricing returns the serverless GB-second price used throughout.
func DefaultPricing() Pricing { return cost.DefaultPricing() }

// Hive returns the calibrated Hive-on-Tez execution profile.
func Hive() EngineParams { return execsim.Hive() }

// Spark returns the calibrated SparkSQL execution profile.
func Spark() EngineParams { return execsim.Spark() }

// Simulate executes a fully resource-annotated plan on the engine
// simulator, returning time, GB-seconds and monetary cost.
func Simulate(engine EngineParams, p *Plan, pricing Pricing) (*ExecResult, error) {
	return engine.Execute(p, pricing)
}

// SimulateUniform executes a plan with one configuration for all stages —
// how Hive and Spark run jobs today.
func SimulateUniform(engine EngineParams, p *Plan, r Resources, pricing Pricing) (*ExecResult, error) {
	return engine.ExecuteUniform(p, r, pricing)
}

// DefaultRule returns the engine's stock join-implementation rule (the
// 10 MB broadcast threshold of Figure 10).
func DefaultRule(engine string) Rule { return core.NewDefaultRule(engine) }

// TrainTreeRule learns the engine's resource-aware RAQO decision tree from
// simulated switch-point data (Figure 11).
func TrainTreeRule(engine EngineParams) (*TreeRule, error) {
	return core.TrainTreeRule(engine)
}

// ApplyRule rewrites a plan's join implementations per the rule at the
// given per-operator resources, keeping the join order.
func ApplyRule(s *Schema, p *Plan, rule Rule, r Resources) (*Plan, error) {
	return core.ApplyRule(s, p, rule, r)
}

// LeftDeep builds a left-deep plan joining relations in the given order
// with one implementation everywhere — a convenience for examples and
// rule-based rewriting.
func LeftDeep(s *Schema, algo JoinAlgo, relations ...string) (*Plan, error) {
	return plan.LeftDeep(s, algo, relations...)
}

// DecodePlan reconstructs a plan from its JSON form against a schema,
// re-deriving all statistics (the inverse of json.Marshal on a Plan).
func DecodePlan(s *Schema, data []byte) (*Plan, error) { return plan.Decode(s, data) }

// CompareWorkload runs every TPC-H evaluation query end to end twice —
// today's two-step practice vs RAQO — on the engine simulator.
func CompareWorkload(engine EngineParams, opt *Optimizer, s *Schema, guess Resources) (*WorkloadReport, error) {
	queries, err := workload.TPCHQueries(s)
	if err != nil {
		return nil, err
	}
	return e2e.RunComparison(engine, opt, queries, guess, cost.DefaultPricing())
}
