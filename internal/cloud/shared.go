package cloud

import (
	"errors"
	"fmt"

	"raqo/internal/core"
	"raqo/internal/execsim"
	"raqo/internal/feedback"
)

// SharedCluster configures the shared cluster on wl: the engine's
// one-class, unpriced, fault-free case, one class "cluster" of capacity
// containers of wl.Base.MaxContainerGB at price 0 with no autoscaler, its
// errors prefixed "arbiter". It is the Figure 1 setting of POST /v1/submit
// and `raqo figure arbiter`. A capacity below wl.Base.MinContainers holds
// no gang the optimizer plans and is refused.
func SharedCluster(wl Workload, capacity int) (Config, error) {
	if capacity < wl.Base.MinContainers {
		return Config{}, fmt.Errorf("arbiter: capacity %d below minimum allocation %d", capacity, wl.Base.MinContainers)
	}
	return Config{
		Workload: wl,
		Market: Market{Classes: []InstanceClass{{
			Name: "cluster", ContainerGB: wl.Base.MaxContainerGB, Count: capacity,
		}}},
		Hooks: Hooks{Name: "arbiter"},
	}, nil
}

// FeedbackHook returns a Hooks.Completed that closes the loop from
// admission to the cost models, everything stamped with the virtual finish
// time. hist, when set, receives the series "arbiter.queue_seconds.<tenant>"
// (Start - Arrival) and "arbiter.exec_seconds.<tenant>"; the caller owns
// committing it. ob, when set, records every completion as execution
// feedback, and every recalEvery recorded completions (0: never) offers
// its recalibrator a drift check; wire Recal.OnSwap to
// Optimizer.SetModels so later plans see the recalibrated models. recals
// counts the checks that swapped the models.
func FeedbackHook(ob *feedback.Observer, hist feedback.Recorder, recalEvery int) (completed func(o *Outcome, d *core.Decision, res *execsim.Result) error, recals func() int64) {
	since, swaps := 0, int64(0)
	completed = func(o *Outcome, d *core.Decision, res *execsim.Result) error {
		at := int64(o.Finish)
		if hist != nil {
			hist.Record("arbiter.queue_seconds."+o.Tenant, at, o.Start-o.Arrival)
			hist.Record("arbiter.exec_seconds."+o.Tenant, at, o.ExecSeconds)
		}
		if ob == nil {
			return nil
		}
		// Degraded plans carry no planner prediction; the observer prices
		// them with the live models and skips one they cannot price.
		// Best-effort: a rejected observation is dropped, not fatal.
		if _, err := ob.RecordAt(at, Engine().Name, d.Plan, d.Time, d.Money, res); errors.Is(err, feedback.ErrUnpriced) {
			return nil
		}
		if since++; recalEvery > 0 && since >= recalEvery {
			since = 0
			_, swapped, err := ob.Recal.MaybeRecalibrate()
			if err != nil {
				return fmt.Errorf("arbiter: recalibration: %w", err)
			}
			if swapped {
				swaps++
			}
		}
		return nil
	}
	return completed, func() int64 { return swaps }
}
