package feedback

import (
	"errors"
	"fmt"
	"math"

	"raqo/internal/cost"
	"raqo/internal/execsim"
	"raqo/internal/plan"
	"raqo/internal/units"
)

// Observer converts execution outcomes into feedback observations and
// feeds them to a recalibrator. Per-operator predictions are made with the
// recalibrator's live model set at record time, so the recorded error
// always measures the model generation that was actually in charge.
//
// An Observer is not safe for concurrent use: its record memo belongs to
// the single-threaded event loop that completes the executions.
type Observer struct {
	Recal *Recalibrator

	// Now, when set, supplies the ObservedAt timestamp for every record,
	// overriding the caller's value. The serving path pins arbiter
	// completions to the wall clock this way, so a history store fed by
	// both posted feedback and arbiter completions never mixes virtual and
	// wall time. Simulated workloads leave it nil and virtual finish times
	// flow through RecordAt unchanged.
	Now func() int64

	records recordMemo
}

// ErrUnpriced reports a plan recorded without a prediction that the live
// models cannot price: RecordAt records nothing for it.
var ErrUnpriced = errors.New("feedback: plan without a prediction is unpriceable under the live models")

// Record builds an observation from an executed plan — predicted at the
// query level by (predictedSeconds, predictedMoney), observed by the
// execsim result — feeds it to the recalibrator, and returns it. Stages
// whose operator has no model are skipped (they contribute no trainable
// sample) rather than failing the record. The observation carries no
// timestamp; use RecordAt when the completion time is known.
//
// A root with predictedSeconds <= 0 carries no planner prediction (an
// admission clamped the plan onto what was free): it is priced with the
// live models at the default pricing, so the recorded error measures the
// model in charge, and one they cannot price is not recorded
// (ErrUnpriced).
func (ob *Observer) Record(engine string, root *plan.Node, predictedSeconds float64, predictedMoney units.Dollars, res *execsim.Result) (Observation, error) {
	return ob.RecordAt(0, engine, root, predictedSeconds, predictedMoney, res)
}

// RecordAt is Record with an explicit completion timestamp (unix seconds,
// wall or virtual — the arbiter stamps virtual finish times so days-long
// simulated workloads build days of history deterministically).
//
// Everything of the observation but its timestamp is built once per
// (res, root, engine, prediction, live model set) and kept in a bounded
// memo (maxRecords, FIFO), which a model swap drops; every later record
// of the same arguments copies it. The copies share one Operators slice,
// which nothing writes once stored.
func (ob *Observer) RecordAt(at int64, engine string, root *plan.Node, predictedSeconds float64, predictedMoney units.Dollars, res *execsim.Result) (Observation, error) {
	if ob.Recal == nil {
		return Observation{}, fmt.Errorf("feedback: observer has no recalibrator")
	}
	if res == nil {
		return Observation{}, fmt.Errorf("feedback: observer given nil execution result")
	}
	r := ob.records.get(ob.Recal.Models(), engine, root, predictedSeconds, predictedMoney, res)
	if r.err != nil {
		return Observation{}, r.err
	}
	if ob.Now != nil {
		at = ob.Now()
	}
	o := r.obs
	o.ObservedAt = at
	return o, ob.Recal.Feed(o)
}

// maxRecords bounds the record memo. Its keys are the arbiter's memoized
// decisions and their clamps: under the submit_mix benchmark workload a
// model set saw at most 604 distinct keys (a 40 s run of 520 000 records,
// 99.5 % of them hits), so this bound leaves the memo 1.7 times that.
const maxRecords = 1024

// recordMemo keeps the observation RecordAt builds for each execution
// under one model set, without its timestamp.
type recordMemo struct {
	models *cost.Models
	byKey  map[recordKey]record
	order  []recordKey // FIFO eviction order
}

// recordKey is an execution with the arguments its observation is built
// from; the prediction is keyed by its bits.
type recordKey struct {
	res                              *execsim.Result
	root                             *plan.Node
	engine                           string
	predictedSeconds, predictedMoney uint64
}

type record struct {
	obs Observation
	err error
}

// get returns res's record under models, building it on a miss.
func (m *recordMemo) get(models *cost.Models, engine string, root *plan.Node, predictedSeconds float64, predictedMoney units.Dollars, res *execsim.Result) record {
	if m.models != models || m.byKey == nil {
		m.models = models
		m.byKey = make(map[recordKey]record)
		m.order = m.order[:0]
	}
	k := recordKey{res, root, engine, math.Float64bits(predictedSeconds), math.Float64bits(float64(predictedMoney))}
	if r, ok := m.byKey[k]; ok {
		return r
	}
	if len(m.order) >= maxRecords {
		delete(m.byKey, m.order[0])
		m.order = m.order[1:]
	}
	var r record
	r.obs, r.err = observe(models, engine, root, predictedSeconds, predictedMoney, res)
	m.order = append(m.order, k)
	m.byKey[k] = r
	return r
}

// observe builds the observation of res without its timestamp: root's
// signature, the query-level prediction (priced under models when root
// carries none) and one operator sample per modelled stage.
func observe(models *cost.Models, engine string, root *plan.Node, predictedSeconds float64, predictedMoney units.Dollars, res *execsim.Result) (Observation, error) {
	if predictedSeconds <= 0 && root != nil {
		v, err := models.PlanVector(root, cost.DefaultPricing())
		if err != nil {
			return Observation{}, ErrUnpriced
		}
		predictedSeconds, predictedMoney = v.Time, v.Money
	}
	o := Observation{
		Engine:           engine,
		PredictedSeconds: predictedSeconds,
		ObservedSeconds:  res.Seconds,
		PredictedDollars: predictedMoney,
		ObservedDollars:  res.Money,
	}
	if root != nil {
		o.Signature = root.SignatureWithResources()
	}
	for i := range res.Stages {
		st := &res.Stages[i]
		top := st.Stage.Top
		if top == nil || top.IsScan() {
			continue
		}
		m, ok := models.For(top.Algo)
		if !ok {
			continue
		}
		ss := top.SmallerInputGB()
		cs := st.Resources.ContainerGB
		nc := float64(st.Resources.Containers)
		o.Operators = append(o.Operators, OperatorSample{
			Algo:             top.Algo.String(),
			SSGB:             ss,
			CSGB:             cs,
			NC:               nc,
			PredictedSeconds: m.Cost(ss, cs, nc),
			ObservedSeconds:  st.Seconds,
		})
	}
	return o, nil
}

// SyntheticObservations turns profile samples (whose Seconds are ground
// truth, e.g. from workload.ProfileRuns against the simulator) into
// observations predicted by the given model set — one observation per
// sample, in input order. Used by tests and the calibration harness to
// stream known-accurate feedback against a possibly-skewed model.
func SyntheticObservations(engine string, models *cost.Models, profiles []cost.Profile) []Observation {
	out := make([]Observation, 0, len(profiles))
	for _, p := range profiles {
		pred := p.Seconds
		if m, ok := models.For(p.Algo); ok {
			pred = m.Cost(p.SS, p.CS, p.NC)
		}
		out = append(out, Observation{
			Signature:        fmt.Sprintf("profile-%s-%g-%g-%g", p.Algo, p.SS, p.CS, p.NC),
			Engine:           engine,
			PredictedSeconds: pred,
			ObservedSeconds:  p.Seconds,
			Operators: []OperatorSample{{
				Algo:             p.Algo.String(),
				SSGB:             p.SS,
				CSGB:             p.CS,
				NC:               p.NC,
				PredictedSeconds: pred,
				ObservedSeconds:  p.Seconds,
			}},
		})
	}
	return out
}

// MeanAbsRelError is the mean |pred-obs|/obs over a set of profile samples
// under a model set — the before/after score `raqo calibrate` and the
// convergence experiment report. Samples whose algorithm has no model
// contribute error 1 (complete ignorance).
func MeanAbsRelError(models *cost.Models, profiles []cost.Profile) float64 {
	if len(profiles) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range profiles {
		m, ok := models.For(p.Algo)
		if !ok {
			sum += 1
			continue
		}
		sum += relError(m.Cost(p.SS, p.CS, p.NC), p.Seconds)
	}
	return sum / float64(len(profiles))
}
