package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"raqo/internal/cluster"
	"raqo/internal/core"
	"raqo/internal/cost"
	"raqo/internal/execsim"
	"raqo/internal/feedback"
	"raqo/internal/history"
	"raqo/internal/plan"
	"raqo/internal/server"
)

// This file holds the traced run's standalone measurements: what is
// cheaper to time in a loop of its own than per call (a cost-model
// evaluation, a ring lookup, a history append), the server's codec on the
// traced ops' own bodies, and the paper's overhead ratios on the
// workload's own queries.

// calibrationLoops is the iteration count of the standalone calibrations.
const calibrationLoops = 200_000

// sink keeps calibrated calls from being optimized away.
var sink float64

// calibrate measures what is cheaper to time standalone than per call,
// and the paper's ratios on the workload's own queries.
func (tr *tracer) calibrate() error {
	models, err := trainedModels()
	if err != nil {
		return err
	}
	if m, ok := models.For(plan.SMJ); ok {
		t0 := time.Now()
		for i := 0; i < calibrationLoops; i++ {
			sink += m.Cost(0.1+float64(i%80)/10, float64(1+i%10), float64(1+i%100))
		}
		tr.m["cost.ns_per_eval"] = float64(time.Since(t0)) / calibrationLoops
	}
	tr.codec()
	if err := tr.paperRatios(models); err != nil {
		return err
	}
	switch tr.e.spec.name {
	case "fleet_hop":
		r := fleetRing()
		keys := make([]string, 1024)
		for i := range keys {
			keys[i] = "q/query-" + strconv.Itoa(i)
		}
		n := 0
		t0 := time.Now()
		for i := 0; i < calibrationLoops; i++ {
			n += len(r.Owner(keys[i%len(keys)]))
		}
		tr.m["fleet.ring_owner_ns"] = float64(time.Since(t0)) / calibrationLoops
		sink += float64(n)
	case "feedback_rw":
		return tr.calibrateHistory()
	}
	return nil
}

// codec times the server's request decoding and response encoding on the
// traced ops' own bodies and decisions.
func (tr *tracer) codec() {
	var spent time.Duration
	n := 0
	for i := range tr.ops {
		b := body(tr.ops[i].req)
		if len(b) == 0 {
			continue
		}
		var v any
		switch target(tr.ops[i].req) {
		case "/v1/optimize":
			v = &server.OptimizeRequest{}
		case "/v1/submit":
			v = &server.SubmitRequest{}
		case "/v1/cloud/submit":
			v = &server.CloudSubmitRequest{}
		case "/v1/feedback":
			v = &server.FeedbackRequest{}
		default:
			continue
		}
		t0 := time.Now()
		err := strictDecode(b, v)
		spent += time.Since(t0)
		if err == nil {
			n++
		}
	}
	if n > 0 {
		tr.m["server.decode_us"] = float64(spent) / 1e3 / float64(n)
	}
	if tr.e.spec.name == "plan_scale" || len(tr.decisions) == 0 {
		return
	}
	t0 := time.Now()
	for _, d := range tr.decisions {
		_ = server.WriteJSON(io.Discard, server.NewOptimizeResponse("q", "joint", core.Selinger, d))
	}
	tr.m["server.encode_us"] = float64(time.Since(t0)) / 1e3 / float64(len(tr.decisions))
}

// fixedQO is the configuration the plain query-optimizer baseline prices
// every operator at (the one the paper-figure experiments use).
var fixedQO = plan.Resources{Containers: 10, ContainerGB: 3}

// maxRatioQueries bounds how many of a workload's queries the paper-ratio
// comparisons plan.
const maxRatioQueries = 16

// paperRatios reproduces the paper's overhead comparisons on the
// workload's own distinct queries, each side timed as the best of three:
// joint planning with a warm resource-plan cache over plain QO (≈1.29×),
// cached over uncached joint planning (up to 10× apart), and the cost
// model's error against the execution simulator on the chosen plans.
func (tr *tracer) paperRatios(models *cost.Models) error {
	var joint, qo, uncached time.Duration
	var errs []float64
	engine := execsim.Hive()
	best := func(fn func() (*core.Decision, error)) (time.Duration, *core.Decision, error) {
		var min time.Duration
		var d *core.Decision
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			dd, err := fn()
			el := time.Since(t0)
			if err != nil {
				return 0, nil, err
			}
			if i == 0 || el < min {
				min = el
			}
			d = dd
		}
		return min, d, nil
	}
	for i := range tr.e.queries {
		if i == maxRatioQueries {
			break
		}
		rq := &tr.e.queries[i]
		opts := core.Options{Models: models}
		thresholdGB := float64(servedCacheGB)
		if rq.randomized {
			opts.Planner, opts.Seed, opts.Randomized = core.FastRandomized, 7, planScaleRandomized
		}
		if tr.e.spec.name == "plan_scale" {
			thresholdGB = planScaleCacheGB
		}
		cachedOpts := opts
		cachedOpts.Resource = nnCache(thresholdGB)
		cached, err := core.New(cluster.Default(), cachedOpts)
		if err != nil {
			return err
		}
		plainOpt, err := core.New(cluster.Default(), opts)
		if err != nil {
			return err
		}
		if _, err := cached.Optimize(rq.q); err != nil { // fill the cache
			return err
		}
		tj, d, err := best(func() (*core.Decision, error) { return cached.Optimize(rq.q) })
		if err != nil {
			return err
		}
		tq, _, err := best(func() (*core.Decision, error) { return plainOpt.OptimizeFixed(rq.q, fixedQO) })
		if err != nil {
			return err
		}
		tu, _, err := best(func() (*core.Decision, error) { return plainOpt.Optimize(rq.q) })
		if err != nil {
			return err
		}
		joint, qo, uncached = joint+tj, qo+tq, uncached+tu
		if res, err := engine.Execute(d.Plan, cost.DefaultPricing()); err == nil && res.Seconds > 0 {
			rel := (d.Time - res.Seconds) / res.Seconds
			if rel < 0 {
				rel = -rel
			}
			errs = append(errs, rel)
		}
	}
	if qo > 0 {
		tr.m["core.joint_over_qo_ratio"] = float64(joint) / float64(qo)
	}
	if uncached > 0 {
		tr.m["resource.cached_over_uncached_ratio"] = float64(joint) / float64(uncached)
	}
	tr.m["cost.model_rel_err_p50"] = median(errs)
	return nil
}

// calibrateHistory times the history store alone, and a restart on the
// preloaded state: opening the history directory (segment recovery and
// rollup rebuild) and replaying the feedback journal.
func (tr *tracer) calibrateHistory() error {
	dir := filepath.Join(tr.e.dir, "history-calibration")
	st, err := history.Open(dir, history.Config{})
	if err != nil {
		return err
	}
	s, err := st.Series("bench.calibration")
	if err != nil {
		_ = st.Close()
		return err
	}
	t0 := time.Now()
	for i := 0; i < calibrationLoops; i++ {
		st.Append(s, feedbackEpoch+int64(i/100), float64(i%97))
		if i%1000 == 999 {
			if err := st.Commit(); err != nil {
				_ = st.Close()
				return err
			}
		}
	}
	tr.m["history.append_ns_per_point"] = float64(time.Since(t0)) / calibrationLoops
	if err := st.Close(); err != nil {
		return err
	}
	var onDisk int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			onDisk += info.Size()
		}
		return nil
	})
	tr.m["history.bytes_per_point"] = float64(onDisk) / calibrationLoops

	if tr.e.nextState >= len(tr.e.stateDirs) {
		return errors.New("feedback_rw: no pristine state directory left for the replay timing")
	}
	pristine := tr.e.stateDirs[tr.e.nextState]
	tr.e.nextState++
	t0 = time.Now()
	re, err := history.Open(filepath.Join(pristine, "history"), history.Config{})
	if err != nil {
		return err
	}
	obs, err := feedback.ReadJournal(filepath.Join(pristine, "feedback.jsonl"))
	tr.m["setup.replay_ms"] = float64(time.Since(t0)) / 1e6
	if cerr := re.Close(); err == nil {
		err = cerr
	}
	if err == nil && len(obs) != tr.e.preload {
		err = fmt.Errorf("journal replayed %d observations, preloaded %d", len(obs), tr.e.preload)
	}
	return err
}
