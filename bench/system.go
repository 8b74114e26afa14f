package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"raqo/internal/arbiter"
	"raqo/internal/catalog"
	"raqo/internal/cloud"
	"raqo/internal/cluster"
	"raqo/internal/core"
	"raqo/internal/cost"
	"raqo/internal/execsim"
	"raqo/internal/fleet"
	"raqo/internal/optimizer/randomized"
	"raqo/internal/plan"
	"raqo/internal/resource"
	"raqo/internal/server"
	"raqo/internal/workload"
)

// This file builds the system under test, in this process, from the same
// public constructors `raqo serve` uses, and tears it down again. A cold
// build is everything a restarted service pays before it is useful:
// train the cost models, construct, open on-disk state, listen, and serve
// a fixed warm-up sweep until a health check answers.

// result is what one executed op produced.
type result struct {
	status int            // HTTP status; 200 for in-process ops that succeeded
	body   []byte         // response body; valid until the worker's next op
	dec    *core.Decision // plan_scale only
}

// worker is one closed-loop client: one keep-alive connection (or, for
// plan_scale, one goroutine's optimizers) with one op in flight.
type worker interface {
	do(o *op) (result, error)
	close()
}

// decorators, when non-nil, are installed into the system's optimizer
// options so the traced run can count and time calls across the
// core → resource → cost boundaries from outside those packages.
type decorators struct {
	resource func(inner resource.Planner) resource.Planner
	models   func(m *cost.Models) *cost.Models
}

// system is one built instance of a workload's system under test.
type system struct {
	newWorker func(i int) (worker, error)
	// stop tears the instance down and returns once every goroutine and
	// listener it owned has ended.
	stop func() error

	// Handles the layer run times directly; nil where a workload has none.
	srv   *server.Server // the server behind the entry address
	srvB  *server.Server // fleet_hop: node B's server
	nodeA *fleet.Node
	nodeB *fleet.Node
	addr  string // entry address
	addrB string // fleet_hop: node B's address
}

// env is a workload's prepared inputs: everything generated from the seed
// (or fixed) before any timer starts.
type env struct {
	spec    *workloadSpec
	workers int
	dir     string // scratch directory, inside the checkout
	tpch    *catalog.Schema
	stream  stream

	// queries is the table op.arg indexes for optimize and plan ops, with
	// the reference each answer is validated against.
	queries []refQuery

	// observe, when set (traced run only), sees every answered op after it
	// was timed and validated; an error fails the op.
	observe func(i int, o *op, r result) error

	// feedback_rw: how many observations the on-disk state is preloaded
	// with, and one pristine copy of that state per cold build.
	preload   int
	stateDirs []string
	nextState int
}

// refQuery is one distinct logical query of a workload with the modelled
// time of a from-scratch in-process reference plan.
type refQuery struct {
	name       string
	q          *plan.Query
	randomized bool
	refSeconds float64
}

// servingSF is the TPC-H scale factor every served workload plans at (the
// paper's evaluation scale and the server's default).
const servingSF = 100

// trainedModels runs the paper's profile-runs → regression pipeline, as
// `raqo serve` does at start-up (its -trained default).
func trainedModels() (*cost.Models, error) {
	return workload.TrainedModels(execsim.Hive())
}

// planScaleRandomized keeps 20- to 60-way randomized planning in the low
// milliseconds (the budget of the paper's Figure 15 reproduction).
var planScaleRandomized = randomized.Options{Iterations: 3, Seeds: 4, MutationsPerPlan: 2}

// planScaleCacheGB is plan_scale's resource-plan cache threshold (the
// Figure 15 setting).
const planScaleCacheGB = 0.01

// benchCloudSeed seeds the cloud pool's spot-interruption process. It is
// system configuration, fixed for every run; it is not the -seed.
const benchCloudSeed = 7

// servedCacheGB is server.Config.CacheThresholdGB's default.
const servedCacheGB = 1

// nnCache is a hill-climbing resource planner behind a nearest-neighbour
// resource-plan cache: what server.New installs (at servedCacheGB) and
// what plan_scale's optimizers own (at planScaleCacheGB).
func nnCache(thresholdGB float64) *resource.Cache {
	return &resource.Cache{Inner: &resource.HillClimb{}, Mode: resource.NearestNeighbor, ThresholdGB: thresholdGB}
}

// serverConfig is the configuration every served workload shares:
// `raqo serve` defaults with freshly trained models, and the timer-driven
// background loops off so a run's work is a function of its requests.
func serverConfig(dec *decorators) (server.Config, error) {
	models, err := trainedModels()
	if err != nil {
		return server.Config{}, err
	}
	opts := core.Options{Models: models}
	if dec != nil {
		opts.Models = dec.models(models)
		opts.Resource = dec.resource(nnCache(servedCacheGB))
	}
	return server.Config{
		Options:         opts,
		RecalInterval:   -1,
		HistoryInterval: -1,
	}, nil
}

// serveOne starts one listener in a goroutine and waits (on a channel,
// never a sleep) until it is bound. The returned stop cancels it and
// waits for the drain.
func serveOne(serve func(ctx context.Context, addr string, ready func(string)) error, addr string) (bound string, stop func() error, err error) {
	ctx, cancel := context.WithCancel(context.Background())
	readyc := make(chan string, 1)
	errc := make(chan error, 1)
	go func() { errc <- serve(ctx, addr, func(a string) { readyc <- a }) }()
	select {
	case bound = <-readyc:
	case err = <-errc:
		cancel()
		return "", nil, err
	}
	return bound, func() error {
		cancel()
		return <-errc
	}, nil
}

// buildServed constructs one plain server and serves it on an ephemeral
// loopback port.
func buildServed(cfg server.Config) (*system, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	addr, stop, err := serveOne(srv.Serve, "127.0.0.1:0")
	if err != nil {
		_ = srv.Close()
		return nil, err
	}
	return &system{
		newWorker: func(int) (worker, error) { return dialWorker(addr) },
		stop:      stop,
		srv:       srv,
		addr:      addr,
	}, nil
}

func buildServeWarm(e *env, dec *decorators) (*system, error) {
	cfg, err := serverConfig(dec)
	if err != nil {
		return nil, err
	}
	return buildServed(cfg)
}

func buildSubmitMix(e *env, dec *decorators) (*system, error) {
	cfg, err := serverConfig(dec)
	if err != nil {
		return nil, err
	}
	for _, t := range benchTenants {
		cfg.ArbiterTenants = append(cfg.ArbiterTenants, arbiter.TenantConfig{Name: t.name, Weight: t.weight})
		cfg.CloudTenants = append(cfg.CloudTenants, cloud.TenantConfig{Name: t.name, Weight: t.weight})
	}
	cfg.CloudSeed = benchCloudSeed
	return buildServed(cfg)
}

func buildFeedbackRW(e *env, dec *decorators) (*system, error) {
	if e.nextState >= len(e.stateDirs) {
		return nil, errors.New("feedback_rw: no pristine state directory left")
	}
	dir := e.stateDirs[e.nextState]
	e.nextState++
	cfg, err := serverConfig(dec)
	if err != nil {
		return nil, err
	}
	cfg.JournalPath = filepath.Join(dir, "feedback.jsonl")
	cfg.HistoryDir = filepath.Join(dir, "history")
	return buildServed(cfg)
}

func buildFleetHop(e *env, dec *decorators) (*system, error) {
	var tenants []arbiter.TenantConfig
	for _, name := range fleetTenants() {
		tenants = append(tenants, arbiter.TenantConfig{Name: name, Weight: 1})
	}
	sys := &system{addr: fleetAddrA, addrB: fleetAddrB}
	var stops []func() error
	stopAll := func() error {
		var first error
		for i := len(stops) - 1; i >= 0; i-- {
			if err := stops[i](); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	// B first, so A's first forward finds its peer listening.
	for _, id := range []string{fleetAddrB, fleetAddrA} {
		peer := fleetAddrA
		if id == fleetAddrA {
			peer = fleetAddrB
		}
		cfg, err := serverConfig(dec) // each node trains its own models, as each process would
		if err != nil {
			_ = stopAll()
			return nil, err
		}
		cfg.ArbiterTenants = tenants
		srv, err := server.New(cfg)
		if err != nil {
			_ = stopAll()
			return nil, err
		}
		node, err := fleet.NewNode(fleet.Config{NodeID: id, Peers: []string{peer}}, srv)
		if err != nil {
			_ = srv.Close()
			_ = stopAll()
			return nil, err
		}
		_, stop, err := serveOne(node.Serve, id)
		if err != nil {
			_ = srv.Close()
			_ = stopAll()
			// Ring placement, and so which tenants and keys the generated
			// stream names, is a function of the member addresses; they
			// cannot be ephemeral.
			return nil, fmt.Errorf("fleet_hop needs the fixed loopback address %s free (is another benchmark process running?): %w", id, err)
		}
		stops = append(stops, stop)
		if id == fleetAddrA {
			sys.srv, sys.nodeA = srv, node
		} else {
			sys.srvB, sys.nodeB = srv, node
		}
	}
	sys.newWorker = func(int) (worker, error) { return dialWorker(fleetAddrA) }
	sys.stop = stopAll
	return sys, nil
}

// buildPlanScale has no server: each worker owns its optimizers and calls
// them directly.
func buildPlanScale(e *env, dec *decorators) (*system, error) {
	models, err := trainedModels()
	if err != nil {
		return nil, err
	}
	if dec != nil {
		models = dec.models(models)
	}
	return &system{
		newWorker: func(int) (worker, error) {
			w := &planWorker{env: e, models: models, dec: dec}
			return w, w.rebuild()
		},
		stop: func() error { return nil },
	}, nil
}

// planWorker plans plan_scale's queries cold: its optimizers, and the
// resource-plan caches inside them, are rebuilt after every pass over the
// pool, so a pass always starts from empty caches and warms across
// queries the way the paper's across-query caching experiment does.
type planWorker struct {
	env    *env
	models *cost.Models
	dec    *decorators
	sel    *core.Optimizer
	rnd    *core.Optimizer
	done   int // ops since the last rebuild
}

func (w *planWorker) newCache() resource.Planner {
	var p resource.Planner = nnCache(planScaleCacheGB)
	if w.dec != nil {
		p = w.dec.resource(p)
	}
	return p
}

func (w *planWorker) rebuild() error {
	var err error
	w.sel, err = core.New(cluster.Default(), core.Options{
		Planner: core.Selinger, Models: w.models, Resource: w.newCache(),
	})
	if err != nil {
		return err
	}
	w.rnd, err = core.New(cluster.Default(), core.Options{
		Planner: core.FastRandomized, Models: w.models, Resource: w.newCache(),
		Seed: 7, Randomized: planScaleRandomized,
	})
	w.done = 0
	return err
}

func (w *planWorker) do(o *op) (result, error) {
	if w.done == planPoolSize {
		if err := w.rebuild(); err != nil {
			return result{}, err
		}
	}
	w.done++
	rq := &w.env.queries[o.arg]
	opt := w.sel
	if rq.randomized {
		opt = w.rnd
	}
	d, err := opt.Optimize(rq.q)
	if err != nil {
		return result{}, err
	}
	return result{status: http.StatusOK, dec: d}, nil
}

func (w *planWorker) close() {}

// httpWorker is one keep-alive loopback TCP connection. It writes the
// pre-serialized request and parses the response with net/http's reader,
// with no transport goroutines between the caller and the socket.
type httpWorker struct {
	conn net.Conn
	br   *bufio.Reader
	buf  []byte
}

// opTimeout bounds any single op, so a wedged server fails the run
// instead of hanging it.
const opTimeout = 30 * time.Second

func dialWorker(addr string) (worker, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &httpWorker{conn: conn, br: bufio.NewReaderSize(conn, 64<<10), buf: make([]byte, 0, 64<<10)}, nil
}

func (w *httpWorker) do(o *op) (result, error) { return w.roundTrip(o.req) }

func (w *httpWorker) roundTrip(req []byte) (result, error) {
	if err := w.conn.SetDeadline(time.Now().Add(opTimeout)); err != nil {
		return result{}, err
	}
	if _, err := w.conn.Write(req); err != nil {
		return result{}, err
	}
	resp, err := http.ReadResponse(w.br, nil)
	if err != nil {
		return result{}, err
	}
	w.buf = w.buf[:0]
	for {
		if len(w.buf) == cap(w.buf) {
			w.buf = append(w.buf, 0)[:len(w.buf)]
		}
		n, err := resp.Body.Read(w.buf[len(w.buf):cap(w.buf)])
		w.buf = w.buf[:len(w.buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			_ = resp.Body.Close()
			return result{}, err
		}
	}
	if err := resp.Body.Close(); err != nil {
		return result{}, err
	}
	return result{status: resp.StatusCode, body: w.buf}, nil
}

func (w *httpWorker) close() { _ = w.conn.Close() }

// copyTree copies a directory of regular files and subdirectories.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return writeSynced(target, data)
	})
}

// writeSynced writes a file and flushes it to disk. A restarted service
// finds its state on disk, not in dirty page cache; left dirty, the
// preloaded files reach the kernel's write-back age in the middle of the
// measured run, and appends to the journal cost twice as much from then
// on.
func writeSynced(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
