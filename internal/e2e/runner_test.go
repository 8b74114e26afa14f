package e2e

import (
	"testing"

	"raqo/internal/catalog"
	"raqo/internal/cluster"
	"raqo/internal/core"
	"raqo/internal/cost"
	"raqo/internal/execsim"
	"raqo/internal/plan"
	"raqo/internal/workload"
)

func comparisonReport(t *testing.T) *WorkloadReport {
	t.Helper()
	engine := execsim.Hive()
	models, err := workload.TrainedModels(engine)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := core.New(cluster.Default(), core.Options{Models: models, Engine: &engine})
	if err != nil {
		t.Fatal(err)
	}
	s := catalog.TPCH(100)
	queries, err := workload.TPCHQueries(s)
	if err != nil {
		t.Fatal(err)
	}
	guess := plan.Resources{Containers: 10, ContainerGB: 3}
	report, err := RunComparison(engine, opt, queries, guess, cost.DefaultPricing())
	if err != nil {
		t.Fatal(err)
	}
	return report
}

func TestRunComparisonEndToEnd(t *testing.T) {
	report := comparisonReport(t)
	if len(report.Default) != len(workload.QueryNames) || len(report.RAQO) != len(workload.QueryNames) {
		t.Fatalf("outcomes: %d default, %d raqo", len(report.Default), len(report.RAQO))
	}
	defSecs, defMoney := Totals(report.Default)
	raqoSecs, raqoMoney := Totals(report.RAQO)
	if defSecs <= 0 || raqoSecs <= 0 || defMoney <= 0 || raqoMoney <= 0 {
		t.Fatalf("totals: %v/%v, %v/%v", defSecs, raqoSecs, defMoney, raqoMoney)
	}
	// The end-to-end claim: RAQO's workload makespan beats today's
	// practice.
	if raqoSecs >= defSecs {
		t.Errorf("RAQO workload time %v should beat default practice %v", raqoSecs, defSecs)
	}
	// And every individual query is at least not much worse.
	for i := range report.Default {
		d, r := report.Default[i], report.RAQO[i]
		if r.Seconds > d.Seconds*1.1 {
			t.Errorf("%s: RAQO %.0fs much worse than default %.0fs", d.Name, r.Seconds, d.Seconds)
		}
	}
}

func TestRunComparisonValidation(t *testing.T) {
	engine := execsim.Hive()
	if _, err := RunComparison(engine, nil, nil, plan.Resources{}, cost.DefaultPricing()); err == nil {
		t.Error("nil optimizer accepted")
	}
}

// Budget-constrained RAQO (r => p within the guessed quota) keeps the
// default's container footprint — speed-optimal joint plans request big
// gangs that queue on a shared cluster — while still beating its execution
// times.
func TestBudgetedRAQOBeatsDefaultAtSameFootprint(t *testing.T) {
	engine := execsim.Hive()
	models, err := workload.TrainedModels(engine)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := core.New(cluster.Default(), core.Options{Models: models, Engine: &engine})
	if err != nil {
		t.Fatal(err)
	}
	s := catalog.TPCH(100)
	guess := plan.Resources{Containers: 10, ContainerGB: 3}
	rule := core.NewDefaultRule(engine.Name)
	var defTotal, budTotal float64
	for _, name := range workload.QueryNames {
		q, err := workload.TPCHQuery(s, name)
		if err != nil {
			t.Fatal(err)
		}
		base, err := plan.LeftDeep(q.Schema, plan.SMJ, connectedOrder(q)...)
		if err != nil {
			t.Fatal(err)
		}
		defPlan, err := core.ApplyRule(q.Schema, base, rule, guess)
		if err != nil {
			t.Fatal(err)
		}
		defRes, err := engine.ExecuteUniform(defPlan, guess, cost.DefaultPricing())
		if err != nil {
			t.Fatal(err)
		}
		d, err := opt.OptimizeForBudget(q, guess.Containers, guess.ContainerGB)
		if err != nil {
			t.Fatal(err)
		}
		budRes, err := engine.Execute(d.Plan, cost.DefaultPricing())
		if err != nil {
			t.Fatal(err)
		}
		defTotal += defRes.Seconds
		budTotal += budRes.Seconds
	}
	// Per-query regressions can happen — the Section VI-A cost model only
	// sees the build side, so it can mis-rank orders whose probe sides
	// differ (a limitation the paper shares). The workload-level claim is
	// what must hold: same quota, better overall.
	if budTotal > defTotal {
		t.Errorf("budgeted RAQO workload total %.0fs worse than default practice %.0fs at the same quota",
			budTotal, defTotal)
	}
}
