package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"

	"raqo"
	"raqo/internal/cluster"
	"raqo/internal/core"
	"raqo/internal/cost"
)

// This file checks answers. Every warm-up op and one measured op in
// validateEvery is checked; a non-200, a transport error or a failed
// check all count as a failed op, and a run with any is not correct.

// validateEvery is the sampling stride of answer checks in a measured run.
const validateEvery = 64

// refTolerance is how far an answer's modelled time may sit from the
// from-scratch reference. The served path answers from a resource-plan
// cache that matches nearby data sizes, so it is close, not identical.
const refTolerance = 0.10

// workerState is what validation remembers per connection.
type workerState struct {
	lastTotal int64 // feedback: the last acknowledged store total
}

// reference plans q from scratch in process — no cache, no memo — and
// returns the modelled time answers are held to.
func reference(models *cost.Models, rq *refQuery) (float64, error) {
	opts := core.Options{Models: models}
	if rq.randomized {
		opts.Planner = core.FastRandomized
		opts.Seed = 7
		opts.Randomized = planScaleRandomized
	}
	opt, err := core.New(cluster.Default(), opts)
	if err != nil {
		return 0, err
	}
	d, err := opt.Optimize(rq.q)
	if err != nil {
		return 0, err
	}
	return d.Time, nil
}

func withinRef(got, ref float64) error {
	if ref <= 0 || math.Abs(got-ref) > refTolerance*ref {
		return fmt.Errorf("modelled time %.4g outside %.0f%% of reference %.4g", got, 100*refTolerance, ref)
	}
	return nil
}

// checkOptimize validates a /v1/optimize answer against its query.
func checkOptimize(e *env, o *op, r result) error {
	var resp struct {
		TimeSeconds float64         `json:"timeSeconds"`
		Plan        json.RawMessage `json:"plan"`
	}
	if err := json.Unmarshal(r.body, &resp); err != nil {
		return err
	}
	rq := &e.queries[o.arg]
	p, err := raqo.DecodePlan(rq.q.Schema, resp.Plan)
	if err != nil {
		return err
	}
	if err := p.Validate(rq.q); err != nil {
		return err
	}
	return withinRef(resp.TimeSeconds, rq.refSeconds)
}

// checkPlan validates an in-process decision against its query.
func checkPlan(e *env, o *op, r result) error {
	if r.dec == nil || r.dec.Plan == nil {
		return errors.New("no decision")
	}
	rq := &e.queries[o.arg]
	if err := r.dec.Plan.Validate(rq.q); err != nil {
		return err
	}
	return withinRef(r.dec.Time, rq.refSeconds)
}

// checkSubmit validates an arbiter or cloud admission outcome: both wire
// forms carry the same three virtual times.
func checkSubmit(r result) error {
	var resp struct {
		Arrival *float64 `json:"arrivalSeconds"`
		Start   *float64 `json:"startSeconds"`
		Finish  *float64 `json:"finishSeconds"`
	}
	if err := json.Unmarshal(r.body, &resp); err != nil {
		return err
	}
	if resp.Arrival == nil || resp.Start == nil || resp.Finish == nil {
		return errors.New("outcome missing a time")
	}
	if !(*resp.Finish >= *resp.Start && *resp.Start >= *resp.Arrival) {
		return fmt.Errorf("times out of order: arrival %g start %g finish %g", *resp.Arrival, *resp.Start, *resp.Finish)
	}
	return nil
}

// checkFeedback validates a feedback acknowledgement: the whole batch was
// accepted and the store total only ever grows on one connection.
func checkFeedback(ws *workerState, o *op, r result) error {
	var resp struct {
		Accepted int   `json:"accepted"`
		Total    int64 `json:"total"`
	}
	if err := json.Unmarshal(r.body, &resp); err != nil {
		return err
	}
	if resp.Accepted != o.arg {
		return fmt.Errorf("accepted %d of a batch of %d", resp.Accepted, o.arg)
	}
	if resp.Total <= ws.lastTotal {
		return fmt.Errorf("total went from %d to %d", ws.lastTotal, resp.Total)
	}
	ws.lastTotal = resp.Total
	return nil
}

// checkJSONField validates that a body is a JSON object carrying key.
func checkJSONField(r result, key string) error {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(r.body, &m); err != nil {
		return err
	}
	if _, ok := m[key]; !ok {
		return fmt.Errorf("response has no %q", key)
	}
	return nil
}

// checkHistory validates a range query: the generated range always covers
// committed points, so at least one bucket must come back.
func checkHistory(r result) error {
	var resp struct {
		Buckets []json.RawMessage `json:"buckets"`
	}
	if err := json.Unmarshal(r.body, &resp); err != nil {
		return err
	}
	if len(resp.Buckets) == 0 {
		return errors.New("history range came back empty")
	}
	return nil
}

// checkOK is the first check of every class: the op was answered 200.
func checkOK(r result) error {
	if r.status != http.StatusOK {
		return fmt.Errorf("status %d: %.120s", r.status, r.body)
	}
	return nil
}

func checkServeWarm(e *env, _ *workerState, o *op, r result) error { return checkOptimize(e, o, r) }

func checkPlanScale(e *env, _ *workerState, o *op, r result) error { return checkPlan(e, o, r) }

func checkSubmitMix(_ *env, _ *workerState, o *op, r result) error {
	if o.class == smStats {
		return checkJSONField(r, "completed")
	}
	return checkSubmit(r)
}

func checkFeedbackRW(e *env, ws *workerState, o *op, r result) error {
	switch o.class {
	case fbFeedback:
		return checkFeedback(ws, o, r)
	case fbOptimize:
		return checkOptimize(e, o, r)
	case fbHistory:
		return checkHistory(r)
	}
	return checkJSONField(r, "version")
}

func checkFleetHop(e *env, _ *workerState, o *op, r result) error {
	if o.class == fhSubmit {
		return checkSubmit(r)
	}
	return checkOptimize(e, o, r)
}
