// Benchmarks for the execution-feedback subsystem: observation ingestion
// (with and without the JSONL journal) and a full online recalibration
// (train + atomic swap + cache invalidation). Run with:
//
//	go test -bench Feedback -benchtime=0.2s .
package raqo_test

import (
	"path/filepath"
	"testing"

	"raqo"
	"raqo/internal/feedback"
	"raqo/internal/workload"
)

// benchObservations builds the full profile grid as observations predicted
// by the paper models — the realistic ingest payload.
func benchObservations(tb testing.TB) []feedback.Observation {
	tb.Helper()
	grid := workload.DefaultProfileGrid(raqo.Hive())
	return feedback.SyntheticObservations("hive", raqo.PaperModels(), grid)
}

// BenchmarkFeedbackAppend measures one observation ingest: store ring +
// drift detector, without and with the durable journal on the hot path.
func BenchmarkFeedbackAppend(b *testing.B) {
	obs := benchObservations(b)
	b.Run("memory", func(b *testing.B) {
		rec := feedback.NewRecalibrator(
			feedback.NewStore(0, nil), feedback.NewDetector(feedback.DriftConfig{}), raqo.PaperModels())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := rec.Feed(obs[i%len(obs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("journaled", func(b *testing.B) {
		j, err := feedback.OpenJournalConfig(filepath.Join(b.TempDir(), "journal.jsonl"), feedback.JournalConfig{})
		if err != nil {
			b.Fatal(err)
		}
		defer j.Close()
		rec := feedback.NewRecalibrator(
			feedback.NewStore(0, j), feedback.NewDetector(feedback.DriftConfig{}), raqo.PaperModels())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := rec.Feed(obs[i%len(obs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRecalibrate measures one full recalibration over the
// accumulated grid: filtering, cost.Train, versioned swap and the
// CAS-guarded cache reset.
func BenchmarkRecalibrate(b *testing.B) {
	obs := benchObservations(b)
	store := feedback.NewStore(len(obs), nil)
	rec := feedback.NewRecalibrator(store, feedback.NewDetector(feedback.DriftConfig{}), raqo.PaperModels())
	rec.Cache = raqo.CachedResourcePlanner(1)
	for _, o := range obs {
		if err := rec.Feed(o); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rec.Recalibrate(); err != nil {
			b.Fatal(err)
		}
	}
}
