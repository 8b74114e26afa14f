// Benchmarks for the optimizer service's request path: the full handler
// stack (routing, admission, planning against the warm cache/memo, JSON
// encoding) without TCP in the way. Run with:
//
//	go test -bench ServeOptimize -benchtime=0.2s .
package raqo_test

import (
	"net/http"
	"net/http/httptest"
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
	req := httptest.NewRequest(http.MethodPost, "/v1/optimize",
		strings.NewReader(`{"query":"`+query+`"}`))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
}

// BenchmarkServeOptimize measures steady-state /v1/optimize service time
// for a repeated-query workload (warm cache and memo — the serving
// regime), sequentially and with concurrent senders.
func BenchmarkServeOptimize(b *testing.B) {
	for _, mode := range []string{"serial", "parallel"} {
		b.Run(mode, func(b *testing.B) {
			s := newBenchServer(b)
			serveOptimizeOnce(b, s, "Q12") // warm the cache and memo
			b.ReportAllocs()
			b.ResetTimer()
			if mode == "serial" {
				for i := 0; i < b.N; i++ {
					serveOptimizeOnce(b, s, "Q12")
				}
				return
			}
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					serveOptimizeOnce(b, s, "Q12")
				}
			})
		})
	}
}
