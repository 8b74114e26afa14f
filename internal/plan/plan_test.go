package plan

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"raqo/internal/catalog"
)

func tpch(t *testing.T) *catalog.Schema {
	t.Helper()
	return catalog.TPCH(100)
}

func TestNewQueryValidation(t *testing.T) {
	s := tpch(t)
	if _, err := NewQuery(nil, catalog.Orders); err == nil {
		t.Error("nil schema accepted")
	}
	if _, err := NewQuery(s); err == nil {
		t.Error("empty query accepted")
	}
	if _, err := NewQuery(s, "ghost"); err == nil {
		t.Error("unknown relation accepted")
	}
	if _, err := NewQuery(s, catalog.Orders, catalog.Orders); err == nil {
		t.Error("duplicate relation accepted")
	}
	if _, err := NewQuery(s, catalog.Customer, catalog.Part); err == nil {
		t.Error("disconnected query accepted")
	}
	q, err := NewQuery(s, catalog.Lineitem, catalog.Orders, catalog.Customer)
	if err != nil {
		t.Fatal(err)
	}
	if q.NumJoins() != 2 {
		t.Errorf("NumJoins = %d, want 2", q.NumJoins())
	}
	if q.Index(catalog.Orders) < 0 || q.Index("ghost") != -1 {
		t.Error("Index lookup broken")
	}
}

func TestScanStats(t *testing.T) {
	s := tpch(t)
	n, err := NewScan(s, catalog.Orders)
	if err != nil {
		t.Fatal(err)
	}
	tab := s.MustTable(catalog.Orders)
	if n.Rows() != float64(tab.Rows) {
		t.Errorf("rows = %v, want %v", n.Rows(), tab.Rows)
	}
	if n.Bytes() != tab.Size() {
		t.Errorf("bytes = %v, want %v", n.Bytes(), tab.Size())
	}
	if !n.IsScan() {
		t.Error("scan not recognized")
	}
	if _, err := NewScan(s, "ghost"); err == nil {
		t.Error("unknown table accepted")
	}
}

func TestJoinCardinalityPKFK(t *testing.T) {
	s := tpch(t)
	li, _ := NewScan(s, catalog.Lineitem)
	o, _ := NewScan(s, catalog.Orders)
	j, err := NewJoin(s, SMJ, li, o)
	if err != nil {
		t.Fatal(err)
	}
	// PK-FK join returns FK side cardinality.
	if math.Abs(j.Rows()-li.Rows()) > 1 {
		t.Errorf("lineitem⋈orders rows = %v, want %v", j.Rows(), li.Rows())
	}
	// Output width = sum of input widths.
	wantWidth := 128.0 + 110.0
	gotWidth := float64(j.Bytes()) / j.Rows()
	if math.Abs(gotWidth-wantWidth) > 1e-6 {
		t.Errorf("output width = %v, want %v", gotWidth, wantWidth)
	}
}

func TestJoinCardinalityCommutative(t *testing.T) {
	s := tpch(t)
	li, _ := NewScan(s, catalog.Lineitem)
	o, _ := NewScan(s, catalog.Orders)
	ab, err := NewJoin(s, SMJ, li, o)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := NewJoin(s, BHJ, o, li)
	if err != nil {
		t.Fatal(err)
	}
	if ab.Rows() != ba.Rows() || ab.Bytes() != ba.Bytes() {
		t.Error("join estimation not commutative")
	}
}

func TestJoinErrors(t *testing.T) {
	s := tpch(t)
	c, _ := NewScan(s, catalog.Customer)
	p, _ := NewScan(s, catalog.Part)
	if _, err := NewJoin(s, SMJ, c, p); err == nil {
		t.Error("cross product accepted")
	}
	if _, err := NewJoin(s, SMJ, nil, p); err == nil {
		t.Error("nil input accepted")
	}
	c2, _ := NewScan(s, catalog.Customer)
	if _, err := NewJoin(s, SMJ, c, c2); err == nil {
		t.Error("overlapping sides accepted")
	}
}

func TestSmallerLargerInput(t *testing.T) {
	s := tpch(t)
	li, _ := NewScan(s, catalog.Lineitem)
	o, _ := NewScan(s, catalog.Orders)
	j, _ := NewJoin(s, BHJ, li, o)
	if j.SmallerInputGB() >= j.LargerInputGB() {
		t.Error("smaller >= larger")
	}
	if math.Abs(j.SmallerInputGB()-o.OutputGB()) > 1e-9 {
		t.Errorf("smaller input = %v, want orders %v", j.SmallerInputGB(), o.OutputGB())
	}
	if li.SmallerInputGB() != 0 || li.LargerInputGB() != 0 {
		t.Error("scan input sizes should be 0")
	}
}

func TestLeftDeepAndJoins(t *testing.T) {
	s := tpch(t)
	p, err := LeftDeep(s, SMJ, catalog.Lineitem, catalog.Orders, catalog.Customer)
	if err != nil {
		t.Fatal(err)
	}
	joins := p.Joins()
	if len(joins) != 2 {
		t.Fatalf("joins = %d, want 2", len(joins))
	}
	// Post-order: bottom join first.
	if len(joins[0].Relations()) != 2 || len(joins[1].Relations()) != 3 {
		t.Error("Joins() not post-order")
	}
	q, _ := NewQuery(s, catalog.Lineitem, catalog.Orders, catalog.Customer)
	if err := p.Validate(q); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
	// Wrong coverage.
	q2, _ := NewQuery(s, catalog.Lineitem, catalog.Orders)
	if err := p.Validate(q2); err == nil {
		t.Error("over-covering plan accepted")
	}
}

func TestLeftDeepErrors(t *testing.T) {
	s := tpch(t)
	if _, err := LeftDeep(s, SMJ); err == nil {
		t.Error("no relations accepted")
	}
	if _, err := LeftDeep(s, SMJ, catalog.Customer, catalog.Part); err == nil {
		t.Error("cross product order accepted")
	}
}

func TestSignature(t *testing.T) {
	s := tpch(t)
	p1, _ := LeftDeep(s, SMJ, catalog.Lineitem, catalog.Orders)
	p2, _ := LeftDeep(s, SMJ, catalog.Lineitem, catalog.Orders)
	p3, _ := LeftDeep(s, BHJ, catalog.Lineitem, catalog.Orders)
	p4, _ := LeftDeep(s, SMJ, catalog.Orders, catalog.Lineitem)
	if p1.Signature() != p2.Signature() {
		t.Error("identical plans have different signatures")
	}
	if p1.Signature() == p3.Signature() {
		t.Error("different algos share signature")
	}
	if p1.Signature() == p4.Signature() {
		t.Error("different orders share signature")
	}
	// Resources only show up in SignatureWithResources.
	p2.Res = Resources{Containers: 10, ContainerGB: 3}
	if p1.Signature() != p2.Signature() {
		t.Error("Signature should ignore resources")
	}
	if p1.SignatureWithResources() == p2.SignatureWithResources() {
		t.Error("SignatureWithResources should include resources")
	}
}

func TestCloneIndependent(t *testing.T) {
	s := tpch(t)
	p, _ := LeftDeep(s, SMJ, catalog.Lineitem, catalog.Orders, catalog.Customer)
	c := p.Clone()
	c.Res = Resources{Containers: 5, ContainerGB: 2}
	c.Left.Algo = BHJ
	if p.Res == c.Res {
		t.Error("clone shares Res")
	}
	if p.Left.Algo == BHJ {
		t.Error("clone shares children")
	}
	if p.Signature() == c.Signature() {
		t.Error("mutated clone should differ")
	}
}

func TestStringRendering(t *testing.T) {
	s := tpch(t)
	p, _ := LeftDeep(s, BHJ, catalog.Lineitem, catalog.Orders)
	p.Res = Resources{Containers: 10, ContainerGB: 3}
	out := p.String()
	for _, want := range []string{"BHJ", "10x3GB", "Scan(lineitem)", "Scan(orders)"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}

func TestResourcesString(t *testing.T) {
	if got := (Resources{}).String(); got != "unplanned" {
		t.Errorf("zero Resources = %q", got)
	}
	if got := (Resources{Containers: 40, ContainerGB: 9}).String(); got != "40x9GB" {
		t.Errorf("Resources = %q", got)
	}
	if got := (Resources{Containers: 4, ContainerGB: 2.5}).TotalGB(); got != 10 {
		t.Errorf("TotalGB = %v", got)
	}
}

// Property: for random left-deep orders over a random schema, cardinality
// estimates are positive and total relations covered equal the query size.
func TestRandomLeftDeepProperty(t *testing.T) {
	cfg := catalog.DefaultRandomConfig()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, err := catalog.Random(rng, 8, cfg)
		if err != nil {
			return false
		}
		// Build a connected order by greedy expansion from a random start.
		tables := s.Tables()
		order := []string{tables[rng.Intn(len(tables))]}
		in := map[string]bool{order[0]: true}
		for len(order) < len(tables) {
			var cands []string
			for _, have := range order {
				for _, n := range s.Neighbors(have) {
					if !in[n] {
						cands = append(cands, n)
					}
				}
			}
			if len(cands) == 0 {
				return false
			}
			pick := cands[rng.Intn(len(cands))]
			in[pick] = true
			order = append(order, pick)
		}
		p, err := LeftDeep(s, SMJ, order...)
		if err != nil {
			return false
		}
		if len(p.Relations()) != len(tables) {
			return false
		}
		for _, j := range p.Joins() {
			if j.Rows() < 1 || j.Bytes() < 0 {
				return false
			}
			if j.SmallerInputGB() > j.LargerInputGB() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestParseAlgo(t *testing.T) {
	for _, a := range Algos {
		if got, ok := ParseAlgo(a.String()); !ok || got != a {
			t.Errorf("ParseAlgo(%q) = %v, %v; want %v", a.String(), got, ok, a)
		}
	}
	for _, name := range []string{"", "smj", "NLJ", "JoinAlgo(2)", " BHJ"} {
		if _, ok := ParseAlgo(name); ok {
			t.Errorf("ParseAlgo(%q) accepted", name)
		}
	}
}
