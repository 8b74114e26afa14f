// Benchmarks for the execution-feedback subsystem: the two ends of the
// journal in the feedback_rw shape. Run with:
//
//	go test -bench Feedback -benchtime=0.2s .
package raqo_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"testing"

	"raqo"
	"raqo/internal/cost"
	"raqo/internal/feedback"
	"raqo/internal/server"
	"raqo/internal/workload"
)

// benchObservations builds the full profile grid as observations predicted
// by the paper models, a miscalibrated seed on this engine.
func benchObservations(tb testing.TB) []feedback.Observation {
	tb.Helper()
	grid := workload.DefaultProfileGrid(raqo.Hive())
	return feedback.SyntheticObservations("hive", cost.PaperModels(), grid)
}

// benchShapeObservation draws one observation the way the repository
// benchmark's feedback_rw generator does (bench/gen.go): a two-join plan,
// full-precision floats, a short ASCII signature.
func benchShapeObservation(rng *rand.Rand, at int64) feedback.Observation {
	o := feedback.Observation{
		Signature:  "bench-" + strconv.Itoa(rng.Intn(64)),
		Engine:     "hive",
		ObservedAt: at,
	}
	algos := []string{"SMJ", "BHJ"}
	for j := 0; j < 2; j++ {
		obs := 5 + 200*rng.Float64()
		pred := obs * (0.7 + 0.6*rng.Float64())
		o.Operators = append(o.Operators, feedback.OperatorSample{
			Algo:             algos[rng.Intn(2)],
			SSGB:             0.1 + 8*rng.Float64(),
			CSGB:             float64(1 + rng.Intn(10)),
			NC:               float64(10 + rng.Intn(91)),
			PredictedSeconds: pred,
			ObservedSeconds:  obs,
		})
		o.PredictedSeconds += pred
		o.ObservedSeconds += obs
	}
	return o
}

// benchFeedbackBodies builds n /v1/feedback bodies of eight observations
// each, marshalled by encoding/json as a client would.
func benchFeedbackBodies(tb testing.TB, n int) [][]byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	bodies := make([][]byte, n)
	for i := range bodies {
		var req server.FeedbackRequest
		for j := 0; j < 8; j++ {
			req.Observations = append(req.Observations, benchShapeObservation(rng, 1_700_000_000))
		}
		body, err := json.Marshal(req)
		if err != nil {
			tb.Fatal(err)
		}
		bodies[i] = body
	}
	return bodies
}

// newFeedbackBenchServer builds a server with a journal and a history
// store in a temporary directory and no background loops.
func newFeedbackBenchServer(tb testing.TB) *server.Server {
	tb.Helper()
	dir := tb.TempDir()
	s, err := server.New(server.Config{
		JournalPath:     filepath.Join(dir, "feedback.jsonl"),
		HistoryDir:      filepath.Join(dir, "history"),
		RecalInterval:   -1,
		HistoryInterval: -1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = s.Close() })
	return s
}

func serveFeedbackBody(tb testing.TB, s *server.Server, body []byte) {
	req := httptest.NewRequest(http.MethodPost, "/v1/feedback", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		tb.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
}

// BenchmarkFeedbackIngest measures the two ends of the feedback journal in
// the shape the repository benchmark's feedback_rw workload gives them:
// handler is one eight-observation POST /v1/feedback through the full
// handler stack with the journal and the history store attached (decode,
// validate, journal write, ring, detector, history commit, response);
// replay is feedback.ReadJournal over a 50 000-line journal.
func BenchmarkFeedbackIngest(b *testing.B) {
	b.Run("handler", func(b *testing.B) {
		s := newFeedbackBenchServer(b)
		bodies := benchFeedbackBodies(b, 64)
		serveFeedbackBody(b, s, bodies[0])
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serveFeedbackBody(b, s, bodies[i%len(bodies)])
		}
	})
	b.Run("replay", func(b *testing.B) {
		path := filepath.Join(b.TempDir(), "feedback.jsonl")
		j, err := feedback.OpenJournalConfig(path, feedback.JournalConfig{})
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		const lines = 50_000
		for i := 0; i < lines; i++ {
			if err := j.AppendBatch([]feedback.Observation{benchShapeObservation(rng, 1_700_000_000+int64(i/80))}, nil); err != nil {
				b.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			obs, err := feedback.ReadJournal(path)
			if err != nil || len(obs) != lines {
				b.Fatalf("replayed %d observations, err=%v", len(obs), err)
			}
		}
	})
}
