// Benchmarks for the optimizer service's request path: the fleet hop
// between two in-process nodes and the response encoder. Run with:
//
//	go test -bench FleetForward -benchtime=0.5s -cpu 1 .
//	go test -bench WriteJSON -benchtime=0.2s .
package raqo_test

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"raqo/internal/cloud"
	"raqo/internal/core"
	"raqo/internal/fleet"
	"raqo/internal/scheduler"
	"raqo/internal/server"
	"raqo/internal/workload"
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
	serveBody(b, s, "/v1/optimize", body)
}

// serveBody posts body to path through s's handler and requires a 200.
func serveBody(b testing.TB, s *server.Server, path, body string) {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("POST %s: status = %d, body %s", path, rec.Code, rec.Body)
	}
}

// newBenchFleet starts two fleet nodes in this process, each serving its
// routing handler on a loopback listener with its background loops
// running, and returns a function posting body to path on the node that
// does *not* own key (remote) or the one that does.
func newBenchFleet(tb testing.TB) (post func(remote bool, key, path, body string)) {
	tb.Helper()
	var lns [2]net.Listener
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		lns[i] = ln
	}
	var nodes [2]*fleet.Node
	var stops []func()
	ctx, cancel := context.WithCancel(context.Background())
	for i, ln := range lns {
		srv := newBenchServer(tb)
		node, err := fleet.NewNode(fleet.Config{
			NodeID: ln.Addr().String(),
			Peers:  []string{lns[1-i].Addr().String()},
		}, srv)
		if err != nil {
			tb.Fatal(err)
		}
		nodes[i] = node
		done := make(chan struct{})
		go func(ln net.Listener) {
			defer close(done)
			_ = srv.ServeListener(ctx, ln, node.Handler())
		}(ln)
		stops = append(stops, node.Start(ctx), func() { <-done })
	}
	tb.Cleanup(func() {
		cancel()
		for _, stop := range stops {
			stop()
		}
	})
	return func(remote bool, key, path, body string) {
		node := nodes[0]
		if owns := node.Ring().Owner(key) == lns[0].Addr().String(); owns == remote {
			node = nodes[1]
		}
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		rec := httptest.NewRecorder()
		node.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			tb.Fatalf("POST %s: status %d, body %s", path, rec.Code, rec.Body)
		}
	}
}

// BenchmarkFleetForward is the fleet_hop workload's three request kinds
// between two in-process nodes, the peer hop over loopback TCP:
// forwarded-submit is a /v1/submit for a tenant the other node owns (one
// hop through the peer transport, the owner's arbiter behind it),
// local-submit the same request handed to the owner (the work without the
// hop), hot-optimize an optimize on a peer-owned key answered from the
// entry node's response memo. Run at -cpu 1, as the benchmark does.
func BenchmarkFleetForward(b *testing.B) {
	const submit, optimize = `{"query":"Q12"}`, `{"query":"Q3"}`
	for _, mode := range []string{"forwarded-submit", "local-submit", "hot-optimize"} {
		b.Run(mode, func(b *testing.B) {
			post := newBenchFleet(b)
			post(true, "q/Q3", "/v1/optimize", optimize) // file the owner's answer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				switch mode {
				case "forwarded-submit":
					post(true, "t/default", "/v1/submit", submit)
				case "local-submit":
					post(false, "t/default", "/v1/submit", submit)
				case "hot-optimize":
					post(true, "q/Q3", "/v1/optimize", optimize)
				}
			}
		})
	}
}

// BenchmarkWriteJSON times the response encoder on the two bodies that
// dominate the submit and optimize paths: a /v1/submit outcome and the
// plan of TPC-H All.
func BenchmarkWriteJSON(b *testing.B) {
	out, err := newBenchArbiter(b).SubmitWaitWith(cloud.Arrival{Tenant: "etl", Query: workload.Q3, Policy: scheduler.Reoptimize})
	if err != nil {
		b.Fatal(err)
	}
	o, q := hotPathOptimizer(b)
	d, err := o.Optimize(q)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		v    any
	}{
		{"submit", server.NewSubmitResponse(out)},
		{"optimize-All", server.NewOptimizeResponse(workload.All, "joint", core.Selinger, d)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := server.WriteJSON(io.Discard, c.v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
