package experiments

import (
	"strconv"
	"testing"
)

func TestFigure12Shapes(t *testing.T) {
	r := figureReport(t, "fig12")
	tbl := r.Tables[0]
	// 4 queries x 2 planners x 2 modes = 16 rows.
	if len(tbl.Rows) != 16 {
		t.Fatalf("rows = %d, want 16", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		iters, err := strconv.ParseInt(row[5], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		switch row[2] {
		case "QO":
			if iters != 0 {
				t.Errorf("QO row has resource iterations: %v", row)
			}
		case "RAQO":
			if iters <= 0 {
				t.Errorf("RAQO row without resource iterations: %v", row)
			}
		}
	}
	// The All query explores far more configurations than Q12 under the
	// same planner (paper: the search grows with the schema).
	var q12, all int64
	for _, row := range tbl.Rows {
		if row[1] == "selinger" && row[2] == "RAQO" {
			v, _ := strconv.ParseInt(row[5], 10, 64)
			switch row[0] {
			case "Q12":
				q12 = v
			case "All":
				all = v
			}
		}
	}
	if all <= q12*4 {
		t.Errorf("All iterations (%d) should dwarf Q12's (%d)", all, q12)
	}
}

func TestFigure13Reduction(t *testing.T) {
	r, err := Figure13()
	if err != nil {
		t.Fatal(err)
	}
	iter := r.Tables[0]
	for _, row := range iter.Rows {
		bf, err := strconv.ParseInt(row[1], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		hc, err := strconv.ParseInt(row[2], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		// Paper: ~4x fewer configurations; require at least 2x.
		if bf < 2*hc {
			t.Errorf("%s: brute force %d vs hill climb %d (<2x reduction)", row[0], bf, hc)
		}
	}
}

func TestFigure14CachingReduces(t *testing.T) {
	r, err := Figure14()
	if err != nil {
		t.Fatal(err)
	}
	iter := r.Tables[0]
	parse := func(s string) int64 {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	first := iter.Rows[0]
	last := iter.Rows[len(iter.Rows)-1]
	// At every threshold the cached variants explore no more than plain HC.
	for _, row := range iter.Rows {
		plain, nn, wa := parse(row[1]), parse(row[2]), parse(row[3])
		if nn > plain || wa > plain {
			t.Errorf("threshold %s: caching increased iterations (%d/%d vs %d)", row[0], nn, wa, plain)
		}
	}
	// And the largest threshold cuts iterations substantially vs plain HC.
	if plain, nn := parse(last[1]), parse(last[2]); nn*2 > plain {
		t.Errorf("0.1GB threshold: NN cache %d vs plain %d (<2x reduction)", nn, plain)
	}
	// Bigger thresholds never explore more than the exact-only threshold.
	if parse(last[2]) > parse(first[2]) {
		t.Errorf("NN iterations grew with threshold: %s -> %s", first[2], last[2])
	}
}

func TestFigure15aScales(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling experiment")
	}
	r, err := Figure15a()
	if err != nil {
		t.Fatal(err)
	}
	tbl := r.Tables[0]
	if len(tbl.Rows) != 8 {
		t.Fatalf("rows = %d, want 8 query sizes", len(tbl.Rows))
	}
	// Runtimes are populated and grow with query size for the cached
	// variant (loosely: last > first).
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if parse(tbl.Rows[len(tbl.Rows)-1][3]) <= parse(tbl.Rows[0][3]) {
		t.Error("cached RAQO runtime should grow with query size")
	}
}

func TestFigure15bScales(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling experiment")
	}
	r := figureReport(t, "fig15b")
	tbl := r.Tables[0]
	if len(tbl.Rows) != 40 {
		t.Fatalf("rows = %d, want 40 cluster conditions", len(tbl.Rows))
	}
}
