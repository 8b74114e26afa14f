package selinger

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

// cancellingCoster cancels a context after a fixed number of costing calls,
// simulating a client abandoning a request mid-search.
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

func allTablesQuery(t *testing.T, s *catalog.Schema) *plan.Query {
	t.Helper()
	q, err := plan.NewQuery(s, s.Tables()...)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestPlanCancelledBeforeStart(t *testing.T) {
	s := catalog.TPCH(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := coster()
	p := &Planner{Coster: c, Ctx: ctx}
	_, err := p.Plan(allTablesQuery(t, s))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := c.Calls.Load(); n != 0 {
		t.Errorf("coster called %d times under a pre-cancelled context", n)
	}
}

// TestPlanObservesCancellationMidSearch asserts the DP loop stops costing
// soon after cancellation instead of finishing the enumeration.
func TestPlanObservesCancellationMidSearch(t *testing.T) {
	s := catalog.TPCH(1)
	q := allTablesQuery(t, s)

	// Baseline: how many costing calls does the full 8-relation DP make?
	base := coster()
	if _, err := (&Planner{Coster: base}).Plan(q); err != nil {
		t.Fatal(err)
	}
	full := base.Calls.Load()

	ctx, cancel := context.WithCancel(context.Background())
	cc := &cancellingCoster{inner: coster(), cancel: cancel, after: 5}
	p := &Planner{Coster: cc, Ctx: ctx}
	_, err := p.Plan(q)
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The search may finish the mask in flight, but must not run the rest
	// of the enumeration. A mask costs at most 2*relations candidates, so
	// give it a level of slack.
	if got := cc.calls.Load(); got >= full/2 {
		t.Errorf("%d costing calls after cancellation (full DP = %d)", got, full)
	}
}
