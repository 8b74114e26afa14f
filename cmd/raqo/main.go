// Command raqo drives the RAQO reproduction: regenerate the paper's
// figures, optimize TPC-H queries jointly with their resources, print the
// rule-based decision trees, and simulate executions.
//
// Usage:
//
//	raqo figure <fig1|fig2|...|fig15b|all>
//	raqo optimize -query Q3 [-planner selinger|randomized] [-mode joint|fixed|budget|price] [-json]
//	raqo batch [-queries Q12,Q3,Q2,All] [-parallel N] [-memo] [-cache GB] [-json]
//	raqo serve [-addr :8080] [-planner selinger|randomized] [-max-inflight N] [-queue-depth N] [-journal FILE]
//	raqo calibrate -journal FILE [-trained]
//	raqo trees [-engine hive|spark]
//	raqo trace [-seed N]
//	raqo simulate -query Q3 [-containers N] [-gb G]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"raqo"
	"raqo/internal/experiments"
	"raqo/internal/resource"
	"raqo/internal/server"
	"raqo/internal/telemetry"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "figure":
		err = figureCmd(os.Args[2:])
	case "optimize":
		err = optimizeCmd(os.Args[2:])
	case "batch":
		err = batchCmd(os.Args[2:])
	case "serve":
		err = serveCmd(os.Args[2:])
	case "calibrate":
		err = calibrateCmd(os.Args[2:])
	case "trees":
		err = treesCmd(os.Args[2:])
	case "trace":
		err = traceCmd(os.Args[2:])
	case "simulate":
		err = simulateCmd(os.Args[2:])
	case "robust":
		err = robustCmd(os.Args[2:])
	case "workload":
		err = workloadCmd(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "raqo:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  raqo figure <id|all>     regenerate a paper figure (fig1..fig15b)
  raqo optimize [flags]    jointly optimize a TPC-H query
  raqo batch [flags]       jointly optimize a multi-query workload concurrently
  raqo serve [flags]       run the long-running optimizer HTTP service
  raqo calibrate [flags]   replay a feedback journal and retrain the cost models offline
  raqo trees [flags]       print default and RAQO decision trees
  raqo trace [flags]       simulate the shared-cluster queueing trace (fig 1)
  raqo simulate [flags]    execute an optimized plan on the engine simulator
  raqo robust [flags]      pick a plan resilient to cluster-condition changes
  raqo workload [flags]    compare default practice vs RAQO over the TPC-H workload`)
}

func figureCmd(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("figure: need an id (one of %v) or 'all'", experiments.FigureIDs())
	}
	reg := experiments.Figures()
	ids := args
	if args[0] == "all" {
		ids = experiments.FigureIDs()
	}
	for _, id := range ids {
		run, ok := reg[id]
		if !ok {
			return fmt.Errorf("unknown figure %q (known: %v)", id, experiments.FigureIDs())
		}
		rep, err := run()
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Println(rep)
	}
	return nil
}

func optimizeCmd(args []string) error {
	fs := flag.NewFlagSet("optimize", flag.ContinueOnError)
	query := fs.String("query", "Q3", "TPC-H query: Q12, Q3, Q2 or All")
	plannerName := fs.String("planner", "selinger", "query planner: selinger or randomized")
	mode := fs.String("mode", "joint", "joint, fixed, budget or price")
	containers := fs.Int("containers", 10, "fixed mode: containers; budget mode: max containers")
	gb := fs.Float64("gb", 3, "fixed mode: container GB; budget mode: max container GB")
	budget := fs.Float64("budget", 1, "price mode: dollar budget")
	sf := fs.Float64("sf", 100, "TPC-H scale factor")
	cacheThreshold := fs.Float64("cache", 0, "resource-plan cache data-delta threshold in GB (0 = no cache)")
	explain := fs.Bool("explain", false, "print the per-operator explanation")
	jsonOut := fs.Bool("json", false, "emit the decision as JSON (the /v1/optimize wire format)")
	trained := fs.Bool("trained", true, "train cost models on the simulator (false = paper coefficients)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sch := raqo.TPCH(*sf)
	q, err := raqo.TPCHQuery(sch, *query)
	if err != nil {
		return err
	}
	opts := raqo.Options{}
	switch *plannerName {
	case "selinger":
		opts.Planner = raqo.Selinger
	case "randomized":
		opts.Planner = raqo.FastRandomized
	default:
		return fmt.Errorf("unknown planner %q", *plannerName)
	}
	if *cacheThreshold > 0 {
		opts.Resource = raqo.CachedResourcePlanner(*cacheThreshold)
	}
	if *trained {
		models, err := raqo.TrainModels(raqo.Hive())
		if err != nil {
			return err
		}
		opts.Models = models
	}
	opt, err := raqo.NewOptimizer(raqo.DefaultConditions(), opts)
	if err != nil {
		return err
	}
	var d *raqo.Decision
	switch *mode {
	case "joint":
		d, err = opt.Optimize(q)
	case "fixed":
		d, err = opt.OptimizeFixed(q, raqo.Resources{Containers: *containers, ContainerGB: *gb})
	case "budget":
		d, err = opt.OptimizeForBudget(q, *containers, *gb)
	case "price":
		d, err = opt.OptimizeForPrice(q, raqo.Dollars(*budget))
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	if err != nil {
		return err
	}
	if *jsonOut {
		resp := server.NewOptimizeResponse(*query, *mode, opt.Planner(), d)
		if !*explain {
			return server.WriteJSON(os.Stdout, resp)
		}
		ops, err := opt.ExplainOperators(d)
		if err != nil {
			return err
		}
		return server.WriteJSON(os.Stdout, server.ExplainResponse{
			OptimizeResponse: resp,
			Operators:        server.NewExplainOperators(ops),
			PlanTree:         d.Plan.String(),
		})
	}
	if *explain {
		out, err := opt.Explain(d)
		if err != nil {
			return err
		}
		fmt.Print(out)
		return nil
	}
	fmt.Printf("query: %s (%s planner, %s mode)\n", *query, *plannerName, *mode)
	fmt.Printf("modeled time: %.1fs   modeled cost: %v\n", d.Time, d.Money)
	fmt.Printf("planner: %v elapsed, %d plans considered, %d resource configurations explored\n\n",
		d.Elapsed, d.PlansConsidered, d.ResourceIterations)
	fmt.Print(d.Plan)
	return nil
}

func batchCmd(args []string) error {
	fs := flag.NewFlagSet("batch", flag.ContinueOnError)
	queryList := fs.String("queries", "Q12,Q3,Q2,All", "comma-separated TPC-H queries")
	parallel := fs.Int("parallel", 0, "concurrent queries (0 = NumCPU)")
	memo := fs.Bool("memo", false, "memoize operator costings across the batch")
	cacheThreshold := fs.Float64("cache", 0, "resource-plan cache data-delta threshold in GB (0 = no cache)")
	sf := fs.Float64("sf", 100, "TPC-H scale factor")
	jsonOut := fs.Bool("json", false, "emit the batch result as JSON (the /v1/batch wire format)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sch := raqo.TPCH(*sf)
	names := strings.Split(*queryList, ",")
	queries := make([]*raqo.Query, len(names))
	for i, name := range names {
		names[i] = strings.TrimSpace(name)
		q, err := raqo.TPCHQuery(sch, names[i])
		if err != nil {
			return err
		}
		queries[i] = q
	}
	opts := raqo.Options{MemoizeCosts: *memo}
	var cache *resource.Cache
	if *cacheThreshold > 0 {
		cache = raqo.CachedResourcePlanner(*cacheThreshold)
		opts.Resource = cache
	}
	opt, err := raqo.NewOptimizer(raqo.DefaultConditions(), opts)
	if err != nil {
		return err
	}
	decisions, err := opt.OptimizeBatch(queries, *parallel)
	if err != nil {
		return err
	}

	// The batch summary reuses the service's telemetry registry: planner
	// work accumulated per decision, cache and memo read at render time.
	reg := telemetry.NewRegistry()
	metrics := server.NewPlanningMetrics(reg)
	metrics.AttachCache(cache)
	metrics.AttachMemo(opt.Memo())
	for _, d := range decisions {
		metrics.ObserveDecision(d)
	}

	if *jsonOut {
		resp := server.BatchResponse{Results: make([]server.OptimizeResponse, len(decisions))}
		for i, d := range decisions {
			resp.Results[i] = server.NewOptimizeResponse(names[i], "joint", opt.Planner(), d)
		}
		if cache != nil {
			cs := server.NewCacheStats(cache.Stats())
			resp.Cache = &cs
		}
		if m := opt.Memo(); m != nil {
			resp.Memo = &server.MemoStats{Hits: m.Hits(), Misses: m.Misses(), Entries: m.Size()}
		}
		return server.WriteJSON(os.Stdout, resp)
	}

	fmt.Printf("%-6s  %12s  %12s  %10s  %10s  %12s\n",
		"query", "time", "cost", "plans", "res-iters", "elapsed")
	for i, d := range decisions {
		fmt.Printf("%-6s  %11.1fs  %12v  %10d  %10d  %12v\n",
			names[i], d.Time, d.Money, d.PlansConsidered, d.ResourceIterations, d.Elapsed)
	}
	fmt.Printf("\nstats: %s\n", reg.Summary())
	return nil
}

func robustCmd(args []string) error {
	fs := flag.NewFlagSet("robust", flag.ContinueOnError)
	query := fs.String("query", "Q3", "TPC-H query: Q12, Q3, Q2 or All")
	objective := fs.String("objective", "worst-case", "worst-case or average")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sch := raqo.TPCH(100)
	q, err := raqo.TPCHQuery(sch, *query)
	if err != nil {
		return err
	}
	models, err := raqo.TrainModels(raqo.Hive())
	if err != nil {
		return err
	}
	opt, err := raqo.NewOptimizer(raqo.DefaultConditions(), raqo.Options{Models: models})
	if err != nil {
		return err
	}
	scenarios := []raqo.Conditions{
		raqo.DefaultConditions(),
		{MinContainers: 1, MaxContainers: 10, ContainerStep: 1, MinContainerGB: 1, MaxContainerGB: 4, GBStep: 1},
	}
	obj := raqo.WorstCase
	if *objective == "average" {
		obj = raqo.Average
	}
	rd, err := opt.OptimizeRobust(q, scenarios, obj)
	if err != nil {
		return err
	}
	fmt.Printf("robust (%s) plan across %d scenarios (objective %.1fs, per-scenario %v):\n\n%s",
		*objective, len(scenarios), rd.Objective, rd.PerCondition, rd.Plan)
	return nil
}

func workloadCmd(args []string) error {
	fs := flag.NewFlagSet("workload", flag.ContinueOnError)
	containers := fs.Int("containers", 10, "default practice's guessed container count")
	gb := fs.Float64("gb", 3, "default practice's guessed container size")
	if err := fs.Parse(args); err != nil {
		return err
	}
	engine := raqo.Hive()
	models, err := raqo.TrainModels(engine)
	if err != nil {
		return err
	}
	opt, err := raqo.NewOptimizer(raqo.DefaultConditions(), raqo.Options{Models: models, Engine: &engine})
	if err != nil {
		return err
	}
	sch := raqo.TPCH(100)
	report, err := raqo.CompareWorkload(engine, opt, sch, raqo.Resources{Containers: *containers, ContainerGB: *gb})
	if err != nil {
		return err
	}
	fmt.Printf("%-6s  %-28s  %-28s  %s\n", "query", "default practice", "RAQO joint", "speedup")
	for i := range report.Default {
		d, r := report.Default[i], report.RAQO[i]
		fmt.Printf("%-6s  %8.0fs  %-14v  %8.0fs  %-14v  %.2fx\n",
			d.Name, d.Seconds, d.Money, r.Seconds, r.Money, d.Seconds/r.Seconds)
	}
	return nil
}

func treesCmd(args []string) error {
	fs := flag.NewFlagSet("trees", flag.ContinueOnError)
	engine := fs.String("engine", "hive", "hive or spark")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var params raqo.EngineParams
	switch *engine {
	case "hive":
		params = raqo.Hive()
	case "spark":
		params = raqo.Spark()
	default:
		return fmt.Errorf("unknown engine %q", *engine)
	}
	fmt.Printf("%s default rule (Figure 10): broadcast when the smaller relation is <= 10 MB, regardless of resources\n\n", *engine)
	rule, err := raqo.TrainTreeRule(params)
	if err != nil {
		return err
	}
	fmt.Printf("%s RAQO tree (Figure 11), trained on %d simulated switch points, accuracy %.3f:\n\n%s",
		*engine, rule.NumLabels, rule.TrainAcc, rule.Render())
	return nil
}

func traceCmd(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	seed := fs.Int64("seed", 42, "trace RNG seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rep, err := experiments.Figure1(*seed)
	if err != nil {
		return err
	}
	fmt.Println(rep)
	return nil
}

func simulateCmd(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	query := fs.String("query", "Q3", "TPC-H query: Q12, Q3, Q2 or All")
	sf := fs.Float64("sf", 100, "TPC-H scale factor")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sch := raqo.TPCH(*sf)
	q, err := raqo.TPCHQuery(sch, *query)
	if err != nil {
		return err
	}
	opt, err := raqo.NewOptimizer(raqo.DefaultConditions(), raqo.Options{})
	if err != nil {
		return err
	}
	d, err := opt.Optimize(q)
	if err != nil {
		return err
	}
	res, err := raqo.Simulate(raqo.Hive(), d.Plan, raqo.DefaultPricing())
	if err != nil {
		return err
	}
	fmt.Printf("joint plan for %s:\n\n%s\n", *query, d.Plan)
	fmt.Printf("simulated execution: %.1fs, %.3f TB·s, %v\n",
		res.Seconds, res.Usage.TBSeconds(), res.Money)
	return nil
}
