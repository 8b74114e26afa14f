package randomized

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"raqo/internal/catalog"
	"raqo/internal/optimizer"
	"raqo/internal/optimizer/optimizertest"
	"raqo/internal/plan"
)

type cancellingCoster struct {
	inner  *optimizertest.SizeCoster
	cancel context.CancelFunc
	after  int64
	calls  atomic.Int64
}

func (c *cancellingCoster) CostOperator(j *plan.Node) (optimizer.OpCost, error) {
	if c.calls.Add(1) == c.after {
		c.cancel()
	}
	return c.inner.CostOperator(j)
}

func TestPlanParetoCancelledBeforeStart(t *testing.T) {
	s := catalog.TPCH(1)
	q, err := plan.NewQuery(s, s.Tables()...)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	inner := &optimizertest.SizeCoster{Res: plan.Resources{Containers: 10, ContainerGB: 3}}
	p := &Planner{Coster: inner, Ctx: ctx}
	if _, _, err := p.PlanPareto(q); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := inner.Calls.Load(); n != 0 {
		t.Errorf("coster called %d times under a pre-cancelled context", n)
	}
}

func TestPlanParetoObservesCancellationMidSearch(t *testing.T) {
	s := catalog.TPCH(1)
	q, err := plan.NewQuery(s, s.Tables()...)
	if err != nil {
		t.Fatal(err)
	}
	for _, restarts := range []int{1, 4} {
		inner := &optimizertest.SizeCoster{Res: plan.Resources{Containers: 10, ContainerGB: 3}}
		base := &Planner{Coster: inner, Opts: Options{Restarts: restarts}}
		if _, _, err := base.PlanPareto(q); err != nil {
			t.Fatal(err)
		}
		full := inner.Calls.Load()

		ctx, cancel := context.WithCancel(context.Background())
		cc := &cancellingCoster{
			inner:  &optimizertest.SizeCoster{Res: plan.Resources{Containers: 10, ContainerGB: 3}},
			cancel: cancel,
			after:  full / 10,
		}
		p := &Planner{Coster: cc, Opts: Options{Restarts: restarts}, Ctx: ctx}
		_, _, err := p.PlanPareto(q)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("restarts=%d: err = %v, want context.Canceled", restarts, err)
		}
		if got := cc.calls.Load(); got >= full/2 {
			t.Errorf("restarts=%d: %d costing calls after cancellation (full search = %d)", restarts, got, full)
		}
	}
}
