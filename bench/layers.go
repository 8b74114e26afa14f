package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"raqo/internal/cloud"
	"raqo/internal/cluster"
	"raqo/internal/core"
	"raqo/internal/resource"
	"raqo/internal/scheduler"
	"raqo/internal/server"
)

// This file is the traced run. It replays the first ops of the same
// seeded stream, one connection and one op in flight, through
// successively deeper public entry points — the TCP client, then
// Server.ServeHTTP into a recorder, then the optimizer, arbiter or
// feedback store called directly — each depth against its own freshly
// built, identically warmed system carrying the counting and timing
// decorators. One op in flight means every decorator call belongs to the
// current op. A layer's self time is its span minus its children, so the
// layers of an op sum to the op.

// counters are the deterministic per-answer counts a decorated system
// must reproduce exactly.
type counters struct {
	plans int
	iters int64
	ok    bool // the op carried counts at all
}

// answerCounters extracts plansConsidered and resourceIterations from an
// optimize answer or an in-process decision.
func answerCounters(r result) counters {
	if r.dec != nil {
		return counters{plans: r.dec.PlansConsidered, iters: r.dec.ResourceIterations, ok: true}
	}
	var resp struct {
		Plans *int   `json:"plansConsidered"`
		Iters *int64 `json:"resourceIterations"`
	}
	if json.Unmarshal(r.body, &resp) != nil || resp.Plans == nil || resp.Iters == nil {
		return counters{}
	}
	return counters{plans: *resp.Plans, iters: *resp.Iters, ok: true}
}

// tracer is the state of one traced run.
type tracer struct {
	o   *options
	e   *env
	r   *record
	ops []op
	m   map[string]float64
	log spanLog

	plain []counters // per op, from the undecorated replay
	// chains is each op's span chain, outermost first, filled replay by
	// replay and turned into spans at the end.
	chains [][]level

	decisions []*core.Decision // direct replay's optimize decisions
	selNanos  int64            // enumeration self time by planner kind
	selOps    int
	rndNanos  int64
	rndOps    int
}

// runTraced is the per-layer run. End-to-end metrics never come from it.
func runTraced(o *options) (*record, error) {
	dir, err := scratchDir(o.dir, o.spec.name+"-trace")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	k, warm := o.spec.traceOps, o.spec.warmOps
	if o.n > 0 {
		k = o.n
	}
	if o.warm > 0 {
		warm = o.warm
	}
	// Twice the ops of one replay: the second half is only used for the
	// two-connection half of the lock-wait comparison.
	e, err := prepare(o, 1, warm, 2*k, dir)
	if err != nil {
		return nil, err
	}
	tr := &tracer{
		o: o, e: e, ops: e.stream.ops[:k],
		r:      newRecord(o, "traced", e),
		m:      map[string]float64{},
		plain:  make([]counters, k),
		chains: make([][]level, k),
	}
	if err := tr.run(); err != nil {
		return nil, err
	}
	for i, chain := range tr.chains {
		tr.log.addOp(i, chain)
	}
	if err := tr.log.wellNested(); err != nil {
		return nil, fmt.Errorf("%s: trace: %w", o.spec.name, err)
	}
	tr.reduce()
	if err := tr.log.write(traceOut(o)); err != nil {
		return nil, fmt.Errorf("%s: writing spans: %w", o.spec.name, err)
	}
	for _, u := range perLayerUnits {
		tr.r.Metrics[u.name] = metric{Value: tr.m[u.name], Unit: u.unit}
	}
	tr.r.finish()
	return tr.r, nil
}

// run performs the replays in order, outermost first.
func (tr *tracer) run() error {
	if err := tr.replayPlain(); err != nil {
		return err
	}
	fleet := tr.e.spec.name == "fleet_hop"
	if tr.e.spec.name == "plan_scale" {
		if err := tr.replayDirect(); err != nil {
			return err
		}
	} else {
		if err := tr.replayClient(false); err != nil {
			return err
		}
		if fleet {
			if err := tr.replayClient(true); err != nil {
				return err
			}
		}
		if err := tr.replayHandler(); err != nil {
			return err
		}
		if err := tr.replayDirect(); err != nil {
			return err
		}
	}
	return tr.calibrate()
}

// stage builds one system (decorated by p unless p is nil), runs fn on
// it and tears it down.
func (tr *tracer) stage(p *probe, fn func(b *built) error) error {
	var dec *decorators
	if p != nil {
		dec = p.decorators()
	}
	b, err := coldBuild(tr.e, dec)
	if err != nil {
		return err
	}
	tr.r.account(b.warmup)
	if p == nil {
		tr.m["setup.construct_ms"] = float64(b.construct) / 1e6
		tr.m["setup.warm_ms"] = float64(b.warm) / 1e6
	}
	err = fn(b)
	if terr := b.teardown(); err == nil && terr != nil {
		err = fmt.Errorf("%s: teardown: %w", tr.e.spec.name, terr)
	}
	return err
}

// submitClass reports whether op class c is a submit through an arbiter,
// for the workloads that have one.
func (tr *tracer) submitClass(c uint8) bool {
	switch tr.e.spec.name {
	case "submit_mix":
		return c == smSubmit
	case "fleet_hop":
		return c == fhSubmit
	}
	return false
}

// classMedianUS is the median latency of the ops of t selected by keep.
func classMedianUS(ops []op, t *timing, keep func(c uint8) bool) float64 {
	var xs []float64
	for i := range ops {
		if keep(ops[i].class) && !t.failed[i] {
			xs = append(xs, float64(t.end[i]-t.start[i])/1e3)
		}
	}
	return median(xs)
}

// replayPlain runs the ops once against an undecorated system: the
// baseline for the tracing overhead, the deterministic counters the
// decorated replay must match, and the process diagnostics.
func (tr *tracer) replayPlain() error {
	return tr.stage(nil, func(b *built) error {
		tr.e.observe = func(i int, _ *op, r result) error {
			tr.plain[i] = answerCounters(r)
			return nil
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		cpu0 := cpuTime()
		t := runOps(tr.e, b.workers[:1], b.states[:1], tr.ops, 1, time.Now().Add(opTimeout))
		cpu1 := cpuTime()
		runtime.ReadMemStats(&ms1)
		tr.e.observe = nil
		tr.r.account(t)

		n := float64(len(tr.ops))
		tr.m["process.cpu_us_per_op"] = float64(cpu1-cpu0) / 1e3 / n
		tr.m["process.allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / n
		tr.m["process.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
		lat := make([]float64, len(tr.ops))
		sum := 0.0
		for i := range lat {
			lat[i] = float64(t.end[i]-t.start[i]) / 1e3
			sum += lat[i]
		}
		tr.m["client.p99_us"], _ = percentile(lat, 0.99)
		tr.m["untraced_us"] = sum / n
		if b.sys.srv != nil {
			tr.m["server.rejected_ratio"] = float64(b.sys.srv.Metrics().Rejected.Value()) / n
		}

		// Lock wait: the same kind of submit, one connection against two.
		if name := tr.e.spec.name; name != "submit_mix" && name != "fleet_hop" {
			return nil
		}
		one := classMedianUS(tr.ops, t, tr.submitClass)
		w1, err := b.sys.newWorker(1)
		if err != nil {
			return err
		}
		defer w1.close()
		more := tr.e.stream.ops[len(tr.ops):]
		t2 := runOps(tr.e, []worker{b.workers[0], w1}, make([]workerState, 2), more, 1, time.Now().Add(opTimeout))
		tr.r.account(t2)
		if two := classMedianUS(more, t2, tr.submitClass); one > 0 {
			tr.m["arbiter.lock_wait_share"] = (two - one) / one
		}
		return nil
	})
}

// rootName is the name of an op's outermost span.
func (tr *tracer) rootName(o *op) string {
	switch {
	case tr.e.spec.name == "plan_scale":
		return "core.optimize"
	case tr.e.spec.name != "fleet_hop":
		return "net.roundtrip"
	case o.class == fhSubmit:
		return "fleet.hop"
	}
	return "fleet.hot"
}

// replayClient sends the ops over TCP to a decorated system. With peer
// false it is the outermost replay (the entry address); with peer true it
// sends fleet_hop's submits straight to node B, the owner, so the
// difference between the two is what the hop through A costs.
func (tr *tracer) replayClient(peer bool) error {
	return tr.stage(newProbe(), func(b *built) error {
		w := b.workers[0]
		if peer {
			var err error
			if w, err = dialWorker(b.sys.addrB); err != nil {
				return err
			}
			defer w.close()
		}
		var state workerState
		sum, n := 0.0, 0
		for i := range tr.ops {
			o := &tr.ops[i]
			if peer && o.class != fhSubmit {
				continue
			}
			t0 := time.Now()
			r, err := w.do(o)
			dur := time.Since(t0)
			if err == nil {
				err = checkOK(r)
			}
			if err == nil {
				err = tr.e.spec.check(tr.e, &state, o, r)
			}
			if err == nil && !peer {
				// The decorated system must answer with the same
				// deterministic counts as the plain one.
				if got := answerCounters(r); got != tr.plain[i] {
					err = fmt.Errorf("decorated system answered plans=%d iters=%d, plain answered plans=%d iters=%d",
						got.plans, got.iters, tr.plain[i].plans, tr.plain[i].iters)
				}
			}
			tr.count(i, o, err)
			name := tr.rootName(o)
			if peer {
				name = "net.roundtrip"
			}
			tr.chains[i] = append(tr.chains[i], level{name: name, dur: dur})
			sum += float64(dur) / 1e3
			n++
		}
		if peer {
			return nil
		}
		if u := tr.m["untraced_us"]; u > 0 && n > 0 {
			tr.m["trace.overhead_ratio"] = sum / float64(n) / u
		}
		if node := b.sys.nodeA; node != nil {
			fm := node.Metrics()
			fwd := fm.Forwards.With("/v1/submit").Value() + fm.Forwards.With("/v1/optimize").Value()
			warm := float64(len(tr.e.stream.warm))
			all := float64(n) + warm
			tr.m["fleet.forward_ratio"] = float64(fwd) / all
			tr.m["fleet.degraded_ratio"] = float64(fm.Degraded.Value()) / all
			hot := float64(fm.HotHits.Value())
			if opt := hot + float64(fm.Forwards.With("/v1/optimize").Value()); opt > 0 {
				tr.m["fleet.hot_hit_ratio"] = hot / opt
			}
		}
		return nil
	})
}

// count accounts one traced op execution.
func (tr *tracer) count(i int, o *op, err error) {
	tr.r.Attempted++
	if err != nil {
		tr.r.Failed++
		if tr.r.FirstErr == "" {
			tr.r.FirstErr = fmt.Sprintf("op %d (%s): %v", i, tr.e.spec.classes[o.class], err)
		}
	}
}

// servingServer is the server whose handlers execute an op: node B's for
// fleet_hop (B owns every key the workload sends), the only one otherwise.
func servingServer(b *built) *server.Server {
	if b.sys.srvB != nil {
		return b.sys.srvB
	}
	return b.sys.srv
}

// replayHandler calls Server.ServeHTTP with each op's request and an
// in-memory recorder: the server layer without the network.
func (tr *tracer) replayHandler() error {
	return tr.stage(newProbe(), func(b *built) error {
		srv := servingServer(b)
		var ms0, ms1 runtime.MemStats
		bytesOut, n := 0, 0
		runtime.ReadMemStats(&ms0)
		for i := range tr.ops {
			o := &tr.ops[i]
			if tr.rootName(o) == "fleet.hot" {
				continue // answered by node A's hot cache; no server runs
			}
			req, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(o.req)))
			if err != nil {
				return err
			}
			rec := httptest.NewRecorder()
			t0 := time.Now()
			srv.ServeHTTP(rec, req)
			dur := time.Since(t0)
			if rec.Code != http.StatusOK {
				err = fmt.Errorf("handler status %d: %.120s", rec.Code, rec.Body.Bytes())
			}
			tr.count(i, o, err)
			tr.chains[i] = append(tr.chains[i], level{name: "server.handler", dur: dur})
			bytesOut += rec.Body.Len()
			n++
		}
		runtime.ReadMemStats(&ms1)
		if n > 0 {
			// Includes the recorder and request the replay itself builds:
			// a constant, so a change in the handler still shows.
			tr.m["server.allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
			tr.m["server.resp_bytes"] = float64(bytesOut) / float64(n)
		}
		return nil
	})
}

// body returns the request body of a serialized request.
func body(req []byte) []byte {
	if i := bytes.Index(req, []byte("\r\n\r\n")); i >= 0 {
		return req[i+4:]
	}
	return nil
}

// target returns the request target (path and query) of a serialized
// request.
func target(req []byte) string {
	line, _, _ := bytes.Cut(req, []byte("\r\n"))
	parts := bytes.Fields(line)
	if len(parts) < 2 {
		return ""
	}
	return string(parts[1])
}

// strictDecode decodes a body the way the server's handlers do.
func strictDecode(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// servedOptimizer builds the optimizer server.New builds for planning
// requests — shared nearest-neighbour resource-plan cache at 1 GB, cost
// memo on — with p's decorators in the same places. The server does not
// export its own, so the deepest replay plans on this equivalent.
func servedOptimizer(p *probe) (*core.Optimizer, *resource.Cache, error) {
	models, err := trainedModels()
	if err != nil {
		return nil, nil, err
	}
	dec := p.decorators()
	cache := nnCache(servedCacheGB)
	opt, err := core.New(cluster.Default(), core.Options{
		Models:       dec.models(models),
		Resource:     dec.resource(cache),
		MemoizeCosts: true,
	})
	return opt, cache, err
}

// replayDirect executes each op at the deepest public entry point of its
// class, recording the decorators' spans beneath it.
func (tr *tracer) replayDirect() error {
	p := newProbe()
	return tr.stage(p, func(b *built) error {
		if tr.e.spec.name == "plan_scale" {
			return tr.directPlanScale(b, p)
		}
		srv := servingServer(b)
		opt, cache, err := servedOptimizer(p)
		if err != nil {
			return err
		}
		// Warm the equivalent optimizer with the warm-up's optimize ops,
		// as the served one was.
		for i := range tr.e.stream.warm {
			if o := &tr.e.stream.warm[i]; target(o.req) == "/v1/optimize" {
				if _, err := opt.Optimize(tr.e.queries[o.arg].q); err != nil {
					return err
				}
			}
		}
		journal := filepath.Join(tr.e.lastStateDir(), "feedback.jsonl")
		size0 := fileSize(journal)
		calls0, evals0 := p.planCalls.Load(), p.costEvals.Load()
		hits0, miss0 := opt.Memo().Hits(), opt.Memo().Misses()
		observations, optimized := 0, 0
		for i := range tr.ops {
			o := &tr.ops[i]
			lv, err := tr.direct(srv, opt, p, o)
			if lv.name == "" && err == nil {
				continue // nothing below the handler for this class
			}
			tr.count(i, o, err)
			tr.chains[i] = append(tr.chains[i], lv)
			switch lv.name {
			case "core.optimize":
				optimized++
			case "feedback.ingest":
				observations += o.arg
			}
		}
		n := float64(len(tr.ops))
		tr.m["cost.evals_per_op"] = float64(p.costEvals.Load()-evals0) / n
		if optimized > 0 {
			tr.m["resource.plan_calls_per_op"] = float64(p.planCalls.Load()-calls0) / float64(optimized)
			if h, m := opt.Memo().Hits()-hits0, opt.Memo().Misses()-miss0; h+m > 0 {
				tr.m["core.memo_hit_ratio"] = float64(h) / float64(h+m)
			}
			if st := cache.Stats(); st.Hits+st.Misses > 0 {
				tr.m["resource.cache_hit_ratio"] = float64(st.Hits) / float64(st.Hits+st.Misses)
			}
		}
		if observations > 0 {
			tr.m["feedback.journal_bytes_per_obs"] = float64(fileSize(journal)-size0) / float64(observations)
			t0 := time.Now()
			if _, err := srv.Recalibrator().Recalibrate(); err != nil {
				return fmt.Errorf("forced recalibration: %w", err)
			}
			tr.m["feedback.recal_ms"] = float64(time.Since(t0)) / 1e6
		}
		tr.arbiterStats(srv)
		tr.hcOverBF(p)
		return nil
	})
}

// lastStateDir is the on-disk state directory the latest build opened;
// "" for workloads without one.
func (e *env) lastStateDir() string {
	if e.nextState == 0 {
		return ""
	}
	return e.stateDirs[e.nextState-1]
}

func fileSize(path string) int64 {
	info, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return info.Size()
}

// timed runs fn between p.begin and p.end and returns the level it makes.
func timed(p *probe, name string, fn func() error) (level, error) {
	p.begin()
	t0 := time.Now()
	err := fn()
	dur := time.Since(t0)
	return level{name: name, dur: dur, kids: p.end()}, err
}

// direct executes one served op below the handler. It returns a level
// with an empty name for classes that have nothing below the handler.
func (tr *tracer) direct(srv *server.Server, opt *core.Optimizer, p *probe, o *op) (level, error) {
	u, err := url.Parse(target(o.req))
	if err != nil {
		return level{}, err
	}
	switch u.Path {
	case "/v1/optimize":
		if tr.rootName(o) == "fleet.hot" {
			return level{}, nil
		}
		var d *core.Decision
		lv, err := timed(p, "core.optimize", func() (err error) {
			d, err = opt.OptimizeCtx(context.Background(), tr.e.queries[o.arg].q)
			return err
		})
		if err == nil {
			tr.planned(lv, d, false)
		}
		return lv, err
	case "/v1/submit":
		var req server.SubmitRequest
		if err := strictDecode(body(o.req), &req); err != nil {
			return level{}, err
		}
		policy, err := scheduler.ParsePolicy(req.Policy)
		if err != nil {
			return level{}, err
		}
		return timed(p, "arbiter.submitwait", func() error {
			_, err := srv.Arbiter().SubmitWait(req.Tenant, req.Query, policy)
			return err
		})
	case "/v1/cloud/submit":
		var req server.CloudSubmitRequest
		if err := strictDecode(body(o.req), &req); err != nil {
			return level{}, err
		}
		rec, err := cloud.ParseRecovery(req.Recovery)
		if err != nil {
			return level{}, err
		}
		return timed(p, "cloud.submitwait", func() error {
			_, err := srv.Cloud().SubmitWait(req.Tenant, req.Query, rec)
			return err
		})
	case "/v1/feedback":
		var req server.FeedbackRequest
		if err := strictDecode(body(o.req), &req); err != nil {
			return level{}, err
		}
		// The handler's ingest path: feed every observation, then commit
		// the batch's history points. Children are recorded here, not by
		// the probe: nothing below this level plans.
		var kids []childSpan
		t0 := time.Now()
		for _, ob := range req.Observations {
			s := time.Since(t0)
			if err := srv.Recalibrator().Feed(ob); err != nil {
				return level{}, err
			}
			kids = append(kids, childSpan{name: "feedback.feed", start: s, end: time.Since(t0)})
		}
		s := time.Since(t0)
		err := srv.History().Commit()
		end := time.Since(t0)
		kids = append(kids, childSpan{name: "history.commit", start: s, end: end})
		return level{name: "feedback.ingest", dur: end, kids: kids}, err
	case "/v1/history":
		q := u.Query()
		from, _ := strconv.ParseInt(q.Get("from"), 10, 64)
		to, _ := strconv.ParseInt(q.Get("to"), 10, 64)
		step, _ := strconv.ParseInt(q.Get("step"), 10, 64)
		return timed(p, "history.query", func() error {
			rows, err := srv.History().Query(q.Get("series"), from, to, step)
			if err == nil && len(rows) == 0 {
				err = errors.New("history range came back empty")
			}
			return err
		})
	}
	return level{}, nil
}

// planned accounts one direct optimize: its decision, and its enumeration
// self time (the level minus its resource-planning children) by planner.
func (tr *tracer) planned(lv level, d *core.Decision, randomized bool) {
	tr.decisions = append(tr.decisions, d)
	self := int64(lv.dur)
	for _, k := range lv.kids {
		self -= int64(k.end - k.start)
	}
	if randomized {
		tr.rndNanos += self
		tr.rndOps++
	} else {
		tr.selNanos += self
		tr.selOps++
	}
}

// directPlanScale is plan_scale's only traced replay: the op already is
// the direct optimizer call.
func (tr *tracer) directPlanScale(b *built, p *probe) error {
	calls0, evals0 := p.planCalls.Load(), p.costEvals.Load()
	sum := 0.0
	for i := range tr.ops {
		o := &tr.ops[i]
		var r result
		lv, err := timed(p, "core.optimize", func() (err error) {
			r, err = b.workers[0].do(o)
			return err
		})
		if err == nil {
			err = tr.e.spec.check(tr.e, &b.states[0], o, r)
		}
		if err == nil {
			if got := answerCounters(r); got != tr.plain[i] {
				err = fmt.Errorf("decorated optimizer answered plans=%d iters=%d, plain answered plans=%d iters=%d",
					got.plans, got.iters, tr.plain[i].plans, tr.plain[i].iters)
			}
		}
		tr.count(i, o, err)
		tr.chains[i] = append(tr.chains[i], lv)
		if err == nil {
			tr.planned(lv, r.dec, tr.e.queries[o.arg].randomized)
		}
		sum += float64(lv.dur) / 1e3
	}
	n := float64(len(tr.ops))
	tr.m["resource.plan_calls_per_op"] = float64(p.planCalls.Load()-calls0) / n
	tr.m["cost.evals_per_op"] = float64(p.costEvals.Load()-evals0) / n
	if u := tr.m["untraced_us"]; u > 0 {
		tr.m["trace.overhead_ratio"] = sum / n / u
	}
	tr.hcOverBF(p)
	return nil
}

// arbiterStats reads the arbiter's own counters after the direct replay.
func (tr *tracer) arbiterStats(srv *server.Server) {
	st := srv.Arbiter().Stats()
	if admitted := st.AdmittedWait + st.AdmittedDeg + st.AdmittedReopt; admitted > 0 {
		tr.m["arbiter.replanned_ratio"] = float64(st.Replanned) / float64(admitted)
		tr.m["arbiter.degraded_ratio"] = float64(st.Degraded) / float64(admitted)
	}
	if total := st.ReoptFull + st.ReoptExact + st.ReoptPatched; total > 0 {
		tr.m["arbiter.reopt_exact_ratio"] = float64(st.ReoptExact) / float64(total)
		tr.m["arbiter.reopt_patched_ratio"] = float64(st.ReoptPatched) / float64(total)
		tr.m["arbiter.reopt_full_ratio"] = float64(st.ReoptFull) / float64(total)
	}
	// A query's bill is final when it completes (revoked attempts are
	// billed too), so the mean is over the completed outcomes.
	if done := srv.Cloud().Completed(); len(done) > 0 {
		sum := 0.0
		for i := range done {
			sum += float64(done[i].BillUSD)
		}
		tr.m["cloud.usd_per_query"] = sum / float64(len(done))
	}
}

// hcOverBF replays the distinct planning problems the direct replay asked
// through a hill climb and a brute force and compares how many
// configurations each priced (the paper: about a quarter).
func (tr *tracer) hcOverBF(p *probe) {
	var hc, bf int64
	p.mu.Lock()
	inputs := p.inputs
	p.mu.Unlock()
	for in, model := range inputs {
		_, h, err1 := (&resource.HillClimb{}).PlanCounted(model, in.ssGB, in.cond)
		_, b, err2 := (&resource.BruteForce{}).PlanCounted(model, in.ssGB, in.cond)
		if err1 == nil && err2 == nil {
			hc, bf = hc+h, bf+b
		}
	}
	if bf > 0 {
		tr.m["resource.hc_over_bf_evals_ratio"] = float64(hc) / float64(bf)
	}
}

// reduce turns the assembled spans into the per-layer timings.
func (tr *tracer) reduce() {
	self, count := tr.log.selfTimes()
	// Durations as measured, before any clipping into a parent: a span's
	// own time is what its replay timed, only self times need the tree.
	total := map[string]int64{}
	for _, chain := range tr.chains {
		for _, lv := range chain {
			total[lv.name] += int64(lv.dur)
			for _, k := range lv.kids {
				total[k.name] += int64(k.end - k.start)
			}
		}
	}
	meanUS := func(sum map[string]int64, name string) float64 {
		if count[name] == 0 {
			return 0
		}
		return float64(sum[name]) / 1e3 / float64(count[name])
	}
	tr.m["net.self_us"] = meanUS(self, "net.roundtrip")
	tr.m["fleet.hop_self_us"] = meanUS(self, "fleet.hop")
	tr.m["server.handler_us"] = meanUS(total, "server.handler")
	tr.m["server.self_us"] = meanUS(self, "server.handler")
	tr.m["core.optimize_us"] = meanUS(total, "core.optimize")
	tr.m["optimizer.enum_self_us"] = meanUS(self, "core.optimize")
	tr.m["arbiter.submitwait_us"] = meanUS(total, "arbiter.submitwait")
	tr.m["cloud.submitwait_us"] = meanUS(total, "cloud.submitwait")
	tr.m["feedback.feed_us"] = meanUS(total, "feedback.feed")
	tr.m["history.commit_us"] = meanUS(total, "history.commit")
	tr.m["history.query_us"] = meanUS(total, "history.query")
	if n := count["core.optimize"]; n > 0 {
		tr.m["resource.plan_us"] = float64(total["resource.plan"]) / 1e3 / float64(n)
	}
	if tr.selOps > 0 {
		tr.m["optimizer.selinger_us"] = float64(tr.selNanos) / 1e3 / float64(tr.selOps)
	}
	if tr.rndOps > 0 {
		tr.m["optimizer.randomized_us"] = float64(tr.rndNanos) / 1e3 / float64(tr.rndOps)
	}
	if hop, direct := total["fleet.hop"], total["net.roundtrip"]; tr.e.spec.name == "fleet_hop" && hop > 0 {
		// Closed loop, one connection: rate is the inverse of latency, so
		// 1 − rate via A / rate direct to B = 1 − time direct / time via A.
		tr.m["fleet.hop_overhead_ratio"] = 1 - float64(direct)/float64(hop)
	}
	var plans, iters float64
	for _, d := range tr.decisions {
		plans += float64(d.PlansConsidered)
		iters += float64(d.ResourceIterations)
	}
	if n := float64(len(tr.decisions)); n > 0 {
		tr.m["core.plans_considered_per_op"] = plans / n
		tr.m["core.resource_iters_per_op"] = iters / n
	}
	tr.r.TraceSpans = len(tr.log.spans)
	if tr.log.total > 0 {
		tr.r.TraceClipped = float64(tr.log.clipped) / float64(tr.log.total)
	}
}
