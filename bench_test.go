// Benchmarks regenerating every figure of the paper's evaluation (one per
// table/figure, as indexed in DESIGN.md). Run with:
//
//	go test -run xxx -bench Figure -benchmem .
package raqo_test

import (
	"testing"

	"raqo/internal/experiments"
)

func benchFigure(b *testing.B, id string) {
	b.Helper()
	run := experiments.Figures()[id]
	if run == nil {
		b.Fatalf("unknown figure %q", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := run()
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Tables) == 0 && len(rep.Notes) == 0 {
			b.Fatal("empty report")
		}
	}
}

// BenchmarkFigure1 regenerates the shared-cluster queue-time CDF.
func BenchmarkFigure1(b *testing.B) { benchFigure(b, "fig1") }

// BenchmarkFigure2 regenerates the default-vs-joint gains sweep.
func BenchmarkFigure2(b *testing.B) { benchFigure(b, "fig2") }

// BenchmarkFigure3 regenerates the BHJ/SMJ resource sweeps.
func BenchmarkFigure3(b *testing.B) { benchFigure(b, "fig3") }

// BenchmarkFigure4 regenerates the data-size switch-point sweeps.
func BenchmarkFigure4(b *testing.B) { benchFigure(b, "fig4") }

// BenchmarkFigure5 regenerates the join-order comparison.
func BenchmarkFigure5(b *testing.B) { benchFigure(b, "fig5") }

// BenchmarkFigure6 regenerates the monetary-cost resource sweeps.
func BenchmarkFigure6(b *testing.B) { benchFigure(b, "fig6") }

// BenchmarkFigure7 regenerates the monetary switch-point sweeps.
func BenchmarkFigure7(b *testing.B) { benchFigure(b, "fig7") }

// BenchmarkFigure9 regenerates the switch-point frontier grids.
func BenchmarkFigure9(b *testing.B) { benchFigure(b, "fig9") }

// BenchmarkFigure10 regenerates the default decision trees.
func BenchmarkFigure10(b *testing.B) { benchFigure(b, "fig10") }

// BenchmarkFigure11 trains and renders the RAQO decision trees.
func BenchmarkFigure11(b *testing.B) { benchFigure(b, "fig11") }

// BenchmarkFigure12 measures RAQO planning on TPC-H with both planners.
func BenchmarkFigure12(b *testing.B) { benchFigure(b, "fig12") }

// BenchmarkFigure13 compares hill climbing with brute force.
func BenchmarkFigure13(b *testing.B) { benchFigure(b, "fig13") }

// BenchmarkFigure14 measures the resource-plan cache threshold sweep.
func BenchmarkFigure14(b *testing.B) { benchFigure(b, "fig14") }

// BenchmarkFigure15a scales the schema to 100 tables.
func BenchmarkFigure15a(b *testing.B) { benchFigure(b, "fig15a") }

// BenchmarkFigure15b scales the cluster to 100K containers.
func BenchmarkFigure15b(b *testing.B) { benchFigure(b, "fig15b") }
