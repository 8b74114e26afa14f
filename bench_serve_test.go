// Benchmarks for the optimizer service's request path: the full handler
// stack (routing, the response memo, and behind it admission, planning
// against the warm cache/memo and JSON encoding) without TCP in the way.
// Run with:
//
//	go test -bench ServeOptimize -benchtime=0.2s .
package raqo_test

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"raqo/internal/server"
)

func newBenchServer(b testing.TB) *server.Server {
	s, err := server.New(server.Config{
		MaxInFlight:  32,
		MaxQueue:     1024,
		QueueTimeout: 0, // default
	})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func serveOptimizeOnce(b testing.TB, s *server.Server, query string) {
	serveOptimizeBody(b, s, `{"query":"`+query+`"}`)
}

func serveOptimizeBody(b testing.TB, s *server.Server, body string) {
	req := httptest.NewRequest(http.MethodPost, "/v1/optimize", strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
}

// BenchmarkServeOptimize measures steady-state /v1/optimize service time
// with the resource-plan cache and cost memo warm. hit repeats one body,
// which the response memo answers with stored bytes; miss sends Q12 in a
// body never seen before (joint mode ignores containers), so every request
// takes the whole decode → admit → plan → encode → file path, FIFO
// eviction included; parallel is hit with concurrent senders.
func BenchmarkServeOptimize(b *testing.B) {
	for _, mode := range []string{"hit", "miss", "parallel"} {
		b.Run(mode, func(b *testing.B) {
			s := newBenchServer(b)
			serveOptimizeOnce(b, s, "Q12") // warm the caches and file the hit
			b.ReportAllocs()
			b.ResetTimer()
			switch mode {
			case "hit":
				for i := 0; i < b.N; i++ {
					serveOptimizeOnce(b, s, "Q12")
				}
			case "miss":
				for i := 0; i < b.N; i++ {
					serveOptimizeBody(b, s, `{"query":"Q12","containers":`+strconv.Itoa(i+1)+`}`)
				}
			case "parallel":
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						serveOptimizeOnce(b, s, "Q12")
					}
				})
			}
		})
	}
}
