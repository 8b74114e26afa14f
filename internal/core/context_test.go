package core

import (
	"context"
	"errors"
	"testing"

	"raqo/internal/catalog"
	"raqo/internal/cluster"
	"raqo/internal/plan"
)

func TestOptimizeCtxCancelled(t *testing.T) {
	sch := catalog.TPCH(100)
	q, err := plan.NewQuery(sch, sch.Tables()...)
	if err != nil {
		t.Fatal(err)
	}
	for _, planner := range []PlannerKind{Selinger, FastRandomized} {
		opt, err := New(cluster.Default(), Options{Models: trainedModels(t), Planner: planner})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := opt.OptimizeCtx(ctx, q); !errors.Is(err, context.Canceled) {
			t.Errorf("%v: OptimizeCtx err = %v, want context.Canceled", planner, err)
		}
		// The background-context path still plans normally.
		if _, err := opt.Optimize(q); err != nil {
			t.Errorf("%v: Optimize after cancelled call: %v", planner, err)
		}
	}
}

func TestModeCtxVariantsCancelled(t *testing.T) {
	sch := catalog.TPCH(100)
	q, err := plan.NewQuery(sch, catalog.Customer, catalog.Orders, catalog.Lineitem)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := New(cluster.Default(), Options{Models: trainedModels(t)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := opt.OptimizeFixedCtx(ctx, q, plan.Resources{Containers: 10, ContainerGB: 3}); !errors.Is(err, context.Canceled) {
		t.Errorf("OptimizeFixedCtx err = %v, want context.Canceled", err)
	}
	if _, err := opt.OptimizeForBudgetCtx(ctx, q, 20, 4); !errors.Is(err, context.Canceled) {
		t.Errorf("OptimizeForBudgetCtx err = %v, want context.Canceled", err)
	}
	if _, err := opt.OptimizeForPriceCtx(ctx, q, 5); !errors.Is(err, context.Canceled) {
		t.Errorf("OptimizeForPriceCtx err = %v, want context.Canceled", err)
	}
}
