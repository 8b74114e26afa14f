package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"raqo/internal/catalog"
	"raqo/internal/plan"
	"raqo/internal/server"
	"raqo/internal/workload"
)

// This file drives a workload: prepare its inputs from the seed, build
// its system cold, push ops through a closed loop of workers and record
// when each op started and ended.

// workloadSpec describes one workload. Names are permanent.
type workloadSpec struct {
	name string
	why  string
	// opsPerSecond sizes the run: N = opsPerSecond × -seconds. It is a
	// constant sized on the seed commit and never auto-scaled, so every
	// commit does the same work for the same flags and a faster commit
	// finishes sooner instead of doing more.
	opsPerSecond int
	// warmOps is the fixed size of the warm-up sweep every cold build ends
	// with, sized for at least 0.4 s on the seed commit.
	warmOps int
	// quantum, when set, is what N is rounded down to a multiple of, so
	// every window holds the same whole number of passes over a pool.
	quantum int
	// traceOps is how many ops each replay of the traced run executes,
	// sized so all replays together stay under three seconds.
	traceOps int
	classes  []string
	// shares is each class's nominal share of the ops, in percent.
	shares []int
	// ref is the reference transaction that mirrors how the workload is
	// driven: over loopback TCP, or by direct calls.
	ref     refMode
	prepare func(e *env, rng *rand.Rand, warm, n int) error
	build   func(e *env, dec *decorators) (*system, error)
	check   func(e *env, ws *workerState, o *op, r result) error
}

// numWorkers is the closed loop's client count: one connection with one
// request in flight. With GOMAXPROCS 1 and the process pinned to one core
// (run.sh) exactly one thread is runnable at any time, so nothing the run
// times is a hand-off between cores; on this box's two virtual cores those
// hand-offs were the largest single source of run-to-run spread.
const numWorkers = 1

// coldBuilds is how many times a run builds its system from scratch;
// setup_s is the median.
const coldBuilds = 5

var specs = []*workloadSpec{
	{
		name:         "serve_warm",
		why:          "POST /v1/optimize of Q12/Q3/Q2/All over loopback TCP with memo and cache hot: p50 is net+server on a small query, p90 is enumeration on All",
		opsPerSecond: 7800, warmOps: 5000, traceOps: 3000,
		classes: tpchNames, shares: []int{25, 25, 25, 25},
		prepare: prepareTPCH(func(e *env, rng *rand.Rand, n int) []op { return genServeWarm(rng, n) }),
		build:   buildServeWarm, check: checkServeWarm, ref: refTCP,
	},
	{
		name:         "plan_scale",
		why:          "no HTTP: cold core.Optimize over 64 random-schema queries (Selinger and randomized) with per-pass caches, the paper's Fig 12-15 regime; serve-path gains must not show",
		opsPerSecond: 854, warmOps: 5 * planPoolSize, traceOps: 3 * planPoolSize,
		classes: planScaleClasses(), shares: planScaleShares(),
		quantum: numWindows * planScalePasses * planPoolSize,
		prepare: preparePlanScale,
		build:   buildPlanScale, check: checkPlanScale, ref: refDirect,
	},
	{
		name:         "submit_mix",
		why:          "60% /v1/submit, 30% /v1/cloud/submit, 10% stats: incremental re-planning under conditions that move with every admission, behind two mutex-serialised event loops",
		opsPerSecond: 21000, warmOps: 8000, traceOps: 4000,
		classes: submitMixClasses, shares: submitMixShares,
		prepare: prepareTPCH(func(e *env, rng *rand.Rand, n int) []op { return genSubmitMix(rng, n) }),
		build:   buildSubmitMix, check: checkSubmitMix, ref: refTCP,
	},
	{
		name:         "feedback_rw",
		why:          "55% feedback batches, 20% optimize, 18% history and 7% model reads on one server with journal and history store: durable writes beside planning reads; set-up restarts on 50k observations",
		opsPerSecond: 2100, warmOps: 1800, traceOps: 1200,
		classes: feedbackClasses, shares: feedbackShares,
		prepare: prepareFeedbackRW,
		build:   buildFeedbackRW, check: checkFeedbackRW, ref: refTCP,
	},
	{
		name:         "fleet_hop",
		why:          "two fleet nodes in process, all traffic into A: 77% submits for B-owned tenants (always one hop), 23% optimize on B-owned keys (A's hot cache); the forwarded-hop overhead target",
		opsPerSecond: 11500, warmOps: 4500, traceOps: 3000,
		classes: fleetHopClasses, shares: fleetHopShares,
		prepare: prepareFleetHop,
		build:   buildFleetHop, check: checkFleetHop, ref: refTCP,
	},
}

func specByName(name string) *workloadSpec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// prepareTPCH prepares a served workload whose optimize ops name the four
// TPC-H evaluation queries.
func prepareTPCH(gen func(e *env, rng *rand.Rand, n int) []op) func(*env, *rand.Rand, int, int) error {
	return func(e *env, rng *rand.Rand, warm, n int) error {
		for _, name := range tpchNames {
			q, err := workload.TPCHQuery(e.tpch, name)
			if err != nil {
				return err
			}
			e.queries = append(e.queries, refQuery{name: name, q: q})
		}
		all := gen(e, rng, warm+n)
		e.stream = stream{warm: all[:warm], ops: all[warm:]}
		return nil
	}
}

func preparePlanScale(e *env, rng *rand.Rand, warm, n int) error {
	schemas, pool, err := genPlanPool()
	if err != nil {
		return err
	}
	for i, pq := range pool {
		q, err := plan.NewQuery(schemas[pq.schema], pq.rels...)
		if err != nil {
			return err
		}
		e.queries = append(e.queries, refQuery{
			name:       fmt.Sprintf("%s/%02d", planScaleKinds[pq.class].name, i),
			q:          q,
			randomized: planScaleKinds[pq.class].randomized,
		})
	}
	// Generated apart, so the measured ops start on a pass boundary
	// whatever the warm-up's size.
	e.stream = stream{
		warm: genPlanScale(rng, pool, warm),
		ops:  genPlanScale(rng, pool, n),
	}
	return nil
}

func prepareFleetHop(e *env, rng *rand.Rand, warm, n int) error {
	rels := fleetQueries(e.tpch, fleetQueryCount)
	if len(rels) == 0 {
		return errors.New("fleet_hop: node B owns no candidate query key")
	}
	for _, r := range rels {
		q, err := plan.NewQuery(e.tpch, r...)
		if err != nil {
			return err
		}
		e.queries = append(e.queries, refQuery{name: strings.Join(r, ","), q: q})
	}
	all := genFleetHop(rng, warm+n, rels)
	e.stream = stream{warm: all[:warm], ops: all[warm:]}
	return nil
}

// prepareFeedbackRW generates the stream and writes the on-disk state a
// feedback_rw server restarts on: the preloaded observations are fed
// through a real server with a journal and a history directory, exactly
// as posted feedback would be, then the directory is copied once per cold
// build so every build opens identical, pristine state.
func prepareFeedbackRW(e *env, rng *rand.Rand, warm, n int) error {
	gen := func(e *env, rng *rand.Rand, n int) []op { return genFeedbackRW(rng, n, e.preload) }
	if err := prepareTPCH(gen)(e, rng, warm, n); err != nil {
		return err
	}
	master := filepath.Join(e.dir, "state-master")
	if err := os.MkdirAll(master, 0o755); err != nil {
		return err
	}
	srv, err := server.New(server.Config{
		JournalPath:     filepath.Join(master, "feedback.jsonl"),
		HistoryDir:      filepath.Join(master, "history"),
		RecalInterval:   -1,
		HistoryInterval: -1,
	})
	if err != nil {
		return err
	}
	for i, o := range genPreload(rand.New(rand.NewSource(rng.Int63())), e.preload) {
		if err := srv.Recalibrator().Feed(o); err != nil {
			_ = srv.Close()
			return err
		}
		if (i+1)%feedbackBatch == 0 {
			if err := srv.History().Commit(); err != nil {
				_ = srv.Close()
				return err
			}
		}
	}
	if err := srv.Close(); err != nil {
		return err
	}
	for i := 0; i < coldBuilds+1; i++ { // one spare for the traced run's decorated build
		dir := filepath.Join(e.dir, fmt.Sprintf("state-%d", i))
		if err := copyTree(master, dir); err != nil {
			return err
		}
		e.stateDirs = append(e.stateDirs, dir)
	}
	return nil
}

// prepare builds a workload's env: inputs from the seed, references from
// a from-scratch optimizer. Nothing here is timed.
func prepare(o *options, workers, warm, n int, dir string) (*env, error) {
	e, err := generate(o, workers, warm, n, dir)
	if err != nil {
		return nil, err
	}
	models, err := trainedModels()
	if err != nil {
		return nil, err
	}
	for i := range e.queries {
		ref, err := reference(models, &e.queries[i])
		if err != nil {
			return nil, fmt.Errorf("%s: reference for %s: %w", o.spec.name, e.queries[i].name, err)
		}
		e.queries[i].refSeconds = ref
	}
	return e, nil
}

// generate is the part of prepare that depends on the seed: the op stream
// and, for feedback_rw, the on-disk state.
func generate(o *options, workers, warm, n int, dir string) (*env, error) {
	spec := o.spec
	e := &env{spec: spec, workers: workers, dir: dir, tpch: catalog.TPCH(servingSF), preload: preloadObservations}
	if o.preload > 0 {
		e.preload = o.preload
	}
	if err := spec.prepare(e, rand.New(rand.NewSource(o.seed)), warm, n); err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", spec.name, err)
	}
	return e, nil
}

// timing is when each op of a run started and ended, in nanoseconds
// since the run began, and whether it failed.
type timing struct {
	base       time.Time
	start, end []int64
	failed     []bool
	elapsed    time.Duration

	mu       sync.Mutex
	firstErr error // guarded by mu while a run is in progress
}

func (t *timing) failures() int {
	n := 0
	for _, f := range t.failed {
		if f {
			n++
		}
	}
	return n
}

// add appends u, the timing of window w of the same run, to t.
func (t *timing) add(w int, u *timing) {
	off := int64(u.base.Sub(t.base))
	for i := range u.start {
		t.start = append(t.start, u.start[i]+off)
		t.end = append(t.end, u.end[i]+off)
	}
	t.failed = append(t.failed, u.failed...)
	if t.firstErr == nil && u.firstErr != nil {
		t.firstErr = fmt.Errorf("window %d: %w", w, u.firstErr)
	}
}

// firstOf is the first op index at or after lo that static partitioning
// gives worker w of workers: the smallest i >= lo with i mod workers = w.
func firstOf(w, workers, lo int) int {
	return lo + ((w-lo)%workers+workers)%workers
}

// runOps pushes ops through the workers as a closed loop with static
// partitioning and returns their timing: worker w executes the ops whose
// index is w modulo the worker count, in order, one in flight. Every
// every-th op's answer is validated (1 = all). After deadline the
// remaining ops are failed without being sent. It returns when every
// worker is done.
func runOps(e *env, workers []worker, states []workerState, ops []op, every int, deadline time.Time) *timing {
	t := &timing{
		start:  make([]int64, len(ops)),
		end:    make([]int64, len(ops)),
		failed: make([]bool, len(ops)),
		base:   time.Now(),
	}
	fail := func(i int, err error) {
		t.failed[i] = true
		t.mu.Lock()
		if t.firstErr == nil {
			t.firstErr = fmt.Errorf("op %d (%s): %w", i, e.spec.classes[ops[i].class], err)
		}
		t.mu.Unlock()
	}
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(ops); i += len(workers) {
				o := &ops[i]
				t0 := time.Now()
				if t0.After(deadline) {
					fail(i, errors.New("run deadline exceeded"))
					continue
				}
				res, err := workers[w].do(o)
				t1 := time.Now()
				t.start[i], t.end[i] = int64(t0.Sub(t.base)), int64(t1.Sub(t.base))
				if err == nil {
					err = checkOK(res)
				}
				if err == nil && i%every == 0 {
					err = e.spec.check(e, &states[w], o, res)
				}
				if err == nil && e.observe != nil {
					err = e.observe(i, o, res)
				}
				if err != nil {
					fail(i, err)
				}
			}
		}(w)
	}
	wg.Wait()
	t.elapsed = time.Since(t.base)
	return t
}

// built is a system with its workers connected and its warm-up done.
type built struct {
	sys     *system
	workers []worker
	states  []workerState
	// construct is train + construct + listen; warm is connect + warm-up
	// sweep + health check.
	construct, warm time.Duration
	warmup          *timing // the warm-up sweep's ops, every one validated
}

func (b *built) total() time.Duration { return b.construct + b.warm }

func (b *built) teardown() error {
	for _, w := range b.workers {
		w.close()
	}
	return b.sys.stop()
}

var healthReq = httpReq("GET", "/healthz", nil)

// coldBuild builds the workload's system from scratch and brings it to
// the state a measured run starts from.
func coldBuild(e *env, dec *decorators) (*built, error) {
	t0 := time.Now()
	sys, err := e.spec.build(e, dec)
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", e.spec.name, err)
	}
	b := &built{sys: sys, construct: time.Since(t0), states: make([]workerState, e.workers)}
	t1 := time.Now()
	for i := 0; i < e.workers; i++ {
		w, err := sys.newWorker(i)
		if err != nil {
			_ = b.teardown()
			return nil, fmt.Errorf("%s: worker %d: %w", e.spec.name, i, err)
		}
		b.workers = append(b.workers, w)
	}
	b.warmup = runOps(e, b.workers, b.states, e.stream.warm, 1, time.Now().Add(opTimeout))
	if hw, ok := b.workers[0].(*httpWorker); ok {
		r, err := hw.roundTrip(healthReq)
		if err == nil {
			err = checkOK(r)
		}
		if err != nil {
			_ = b.teardown()
			return nil, fmt.Errorf("%s: health check: %w", e.spec.name, err)
		}
	}
	b.warm = time.Since(t1)
	return b, nil
}
