package dag

import (
	"math"
	"testing"

	"raqo/internal/catalog"
	"raqo/internal/plan"
	"raqo/internal/units"
)

func schema(t *testing.T) *catalog.Schema {
	t.Helper()
	s := catalog.TPCH(100)
	// Paper's Figure 5 setup: orders sampled down to 850 MB.
	if err := s.SetTableSize(catalog.Orders, units.FromMB(850)); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBuildSingleSMJ(t *testing.T) {
	s := catalog.TPCH(100)
	p, err := plan.LeftDeep(s, plan.SMJ, catalog.Lineitem, catalog.Orders)
	if err != nil {
		t.Fatal(err)
	}
	stages, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 1 {
		t.Fatalf("stages = %d, want 1", len(stages))
	}
	st := stages[0]
	if st.Kind != ShuffleJoin {
		t.Errorf("kind = %v", st.Kind)
	}
	wantShuffle := p.Left.OutputGB() + p.Right.OutputGB()
	if math.Abs(st.ShuffleGB-wantShuffle) > 1e-9 {
		t.Errorf("shuffle = %v, want %v", st.ShuffleGB, wantShuffle)
	}
	if st.HashGB != 0 {
		t.Errorf("SMJ stage has hash side %v", st.HashGB)
	}
	if len(st.Deps) != 0 {
		t.Errorf("deps = %v", st.Deps)
	}
	if st.AutoReducers() < 300 { // ~82 GB / 0.25
		t.Errorf("auto reducers = %d, want ~330", st.AutoReducers())
	}
}

func TestBuildSingleBHJ(t *testing.T) {
	s := catalog.TPCH(100)
	p, err := plan.LeftDeep(s, plan.BHJ, catalog.Lineitem, catalog.Orders)
	if err != nil {
		t.Fatal(err)
	}
	stages, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 1 {
		t.Fatalf("stages = %d, want 1", len(stages))
	}
	st := stages[0]
	if st.Kind != BroadcastJoin {
		t.Errorf("kind = %v", st.Kind)
	}
	orders := s.MustTable(catalog.Orders).Size().GBf()
	if math.Abs(st.HashGB-orders) > 1e-9 {
		t.Errorf("hash = %v, want orders %v", st.HashGB, orders)
	}
	li := s.MustTable(catalog.Lineitem).Size().GBf()
	if math.Abs(st.ProbeGB-li) > 1e-9 {
		t.Errorf("probe = %v, want lineitem %v", st.ProbeGB, li)
	}
	if st.AutoReducers() != 0 {
		t.Error("broadcast stage has reducers")
	}
}

// Plan 1 of Figure 5: BHJ(BHJ(lineitem, orders), customer) must collapse to
// a single map stage holding both hash tables.
func TestChainedBHJsMerge(t *testing.T) {
	s := schema(t)
	inner, err := plan.LeftDeep(s, plan.BHJ, catalog.Lineitem, catalog.Orders)
	if err != nil {
		t.Fatal(err)
	}
	cust, err := plan.NewScan(s, catalog.Customer)
	if err != nil {
		t.Fatal(err)
	}
	top, err := plan.NewJoin(s, plan.BHJ, inner, cust)
	if err != nil {
		t.Fatal(err)
	}
	stages, err := Build(top)
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 1 {
		t.Fatalf("stages = %d, want 1 merged map stage", len(stages))
	}
	st := stages[0]
	if len(st.Hashes) != 2 {
		t.Fatalf("hashes = %d, want 2", len(st.Hashes))
	}
	wantHash := s.MustTable(catalog.Orders).Size().GBf() + s.MustTable(catalog.Customer).Size().GBf()
	if math.Abs(st.HashGB-wantHash) > 1e-9 {
		t.Errorf("hash = %v, want %v", st.HashGB, wantHash)
	}
	// The probe is still the original lineitem scan.
	li := s.MustTable(catalog.Lineitem).Size().GBf()
	if math.Abs(st.ProbeGB-li) > 1e-9 {
		t.Errorf("probe = %v, want %v", st.ProbeGB, li)
	}
	if st.Top != top {
		t.Error("merged stage should be topped by the outer join")
	}
}

// Plan 2 of Figure 5: SMJ(BHJ(orders, customer), lineitem) is two stages.
func TestMixedPlanStages(t *testing.T) {
	s := schema(t)
	inner, err := plan.LeftDeep(s, plan.BHJ, catalog.Orders, catalog.Customer)
	if err != nil {
		t.Fatal(err)
	}
	li, err := plan.NewScan(s, catalog.Lineitem)
	if err != nil {
		t.Fatal(err)
	}
	top, err := plan.NewJoin(s, plan.SMJ, inner, li)
	if err != nil {
		t.Fatal(err)
	}
	stages, err := Build(top)
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 2 {
		t.Fatalf("stages = %d, want 2", len(stages))
	}
	if stages[0].Kind != BroadcastJoin || stages[1].Kind != ShuffleJoin {
		t.Errorf("kinds = %v, %v", stages[0].Kind, stages[1].Kind)
	}
	// Topological order: the SMJ depends on the BHJ stage.
	if len(stages[1].Deps) != 1 || stages[1].Deps[0] != 0 {
		t.Errorf("SMJ deps = %v", stages[1].Deps)
	}
	// The BHJ output feeds the shuffle.
	wantShuffle := stages[0].OutputGB + li.OutputGB()
	if math.Abs(stages[1].ShuffleGB-wantShuffle) > 1e-9 {
		t.Errorf("shuffle = %v, want %v", stages[1].ShuffleGB, wantShuffle)
	}
}

// A BHJ on top of an SMJ does not merge.
func TestBHJOverSMJSeparateStages(t *testing.T) {
	s := schema(t)
	inner, err := plan.LeftDeep(s, plan.SMJ, catalog.Lineitem, catalog.Orders)
	if err != nil {
		t.Fatal(err)
	}
	cust, err := plan.NewScan(s, catalog.Customer)
	if err != nil {
		t.Fatal(err)
	}
	top, err := plan.NewJoin(s, plan.BHJ, inner, cust)
	if err != nil {
		t.Fatal(err)
	}
	stages, err := Build(top)
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 2 {
		t.Fatalf("stages = %d, want 2", len(stages))
	}
}

func TestBuildScanOnly(t *testing.T) {
	s := catalog.TPCH(1)
	scan, err := plan.NewScan(s, catalog.Orders)
	if err != nil {
		t.Fatal(err)
	}
	stages, err := Build(scan)
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 0 {
		t.Errorf("scan produced %d stages", len(stages))
	}
	if _, err := Build(nil); err == nil {
		t.Error("nil plan accepted")
	}
}

func TestStageCountMatchesJoinsForAllSMJ(t *testing.T) {
	s := catalog.TPCH(1)
	p, err := plan.LeftDeep(s, plan.SMJ,
		catalog.Lineitem, catalog.Orders, catalog.Customer, catalog.Nation, catalog.Region)
	if err != nil {
		t.Fatal(err)
	}
	stages, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 4 {
		t.Errorf("stages = %d, want 4 (one per SMJ)", len(stages))
	}
	// Execution order: each stage's deps precede it.
	for i, st := range stages {
		for _, d := range st.Deps {
			if d >= i {
				t.Errorf("stage %d depends on later stage %d", i, d)
			}
		}
	}
}
