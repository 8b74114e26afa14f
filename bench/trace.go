package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"raqo/internal/cluster"
	"raqo/internal/cost"
	"raqo/internal/plan"
	"raqo/internal/resource"
)

// This file is the tracing half of the traced run: the decorators that
// time and count calls across the core → resource → cost boundaries from
// outside those packages, and the span records a run is reduced to.

// spanRec is one span: a named interval, the span that caused it, and the
// op both belong to. Times are nanoseconds from the op's root start.
type spanRec struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for the op's root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *spanRec) dur() int64 { return s.End - s.Start }

// childSpan is a span recorded live during one timed call, relative to
// that call's start.
type childSpan struct {
	name       string
	start, end time.Duration
}

// planInput identifies one resource-planning problem, so the hill-climb
// versus brute-force comparison can replay exactly what a run asked.
type planInput struct {
	model string
	ssGB  float64
	cond  cluster.Conditions
}

// probe is what one decorated system reports into. Counters are atomic
// (warm-up may use the system from several goroutines); child spans are
// only recorded between begin and end, when a single op is in flight.
type probe struct {
	planCalls atomic.Int64
	costEvals atomic.Int64

	mu        sync.Mutex
	recording bool
	base      time.Time
	kids      []childSpan
	inputs    map[planInput]cost.Model // distinct problems seen, capped
}

// maxPlanInputs caps how many distinct planning problems a probe keeps.
const maxPlanInputs = 64

func newProbe() *probe { return &probe{inputs: map[planInput]cost.Model{}} }

// begin starts recording child spans relative to now.
func (p *probe) begin() {
	p.mu.Lock()
	p.recording, p.base, p.kids = true, time.Now(), p.kids[:0]
	p.mu.Unlock()
}

// end stops recording and returns a copy of the children seen.
func (p *probe) end() []childSpan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.recording = false
	return append([]childSpan(nil), p.kids...)
}

func (p *probe) planned(m cost.Model, ssGB float64, cond cluster.Conditions, t0, t1 time.Time) {
	p.planCalls.Add(1)
	p.mu.Lock()
	if p.recording {
		p.kids = append(p.kids, childSpan{name: "resource.plan", start: t0.Sub(p.base), end: t1.Sub(p.base)})
	}
	// Problems are kept from the warm-up on: a warm served system answers
	// from its memo and may never plan resources again.
	if len(p.inputs) < maxPlanInputs {
		p.inputs[planInput{model: m.Name(), ssGB: ssGB, cond: cond}] = m
	}
	p.mu.Unlock()
}

// decorators returns the option hooks that route a system's resource
// planning and cost evaluation through p.
func (p *probe) decorators() *decorators {
	return &decorators{
		resource: func(inner resource.Planner) resource.Planner { return &timedPlanner{inner: inner, p: p} },
		models: func(m *cost.Models) *cost.Models {
			out := cost.NewModels()
			for _, a := range plan.Algos {
				if inner, ok := m.For(a); ok {
					out.Set(a, countedModel{Model: inner, n: &p.costEvals})
				}
			}
			return out
		},
	}
}

// timedPlanner times every resource-planning call and passes it through.
// It implements resource.Counted so per-call iteration counts stay exact:
// a decorated system must report the same resourceIterations as a plain
// one.
type timedPlanner struct {
	inner resource.Planner
	p     *probe
}

var _ resource.Counted = (*timedPlanner)(nil)

func (t *timedPlanner) Plan(m cost.Model, ssGB float64, cond cluster.Conditions) (plan.Resources, error) {
	r, _, err := t.PlanCounted(m, ssGB, cond)
	return r, err
}

func (t *timedPlanner) PlanCounted(m cost.Model, ssGB float64, cond cluster.Conditions) (plan.Resources, int64, error) {
	t0 := time.Now()
	r, n, err := resource.PlanWithCount(t.inner, m, ssGB, cond)
	t.p.planned(m, ssGB, cond, t0, time.Now())
	return r, n, err
}

func (t *timedPlanner) Evaluations() int64 { return t.inner.Evaluations() }

// countedModel counts cost-model evaluations. It keeps the inner model's
// name, so memo and cache keys are the ones a plain system uses. Calls
// are counted, not timed: a clock read costs more than an evaluation.
type countedModel struct {
	cost.Model
	n *atomic.Int64
}

func (c countedModel) Cost(ss, cs, nc float64) float64 {
	c.n.Add(1)
	return c.Model.Cost(ss, cs, nc)
}

// maxClippedShare is the most traced op time the replays may disagree by:
// once the tree nests, layer self times sum to the op time exactly, so
// what was clipped to make it nest is the accounting error.
const maxClippedShare = 0.15

// spanLog assembles and holds a run's spans in memory.
type spanLog struct {
	spans   []spanRec
	clipped int64 // nanoseconds children were shortened by to fit their parents
	total   int64 // nanoseconds of all root spans
}

// level is one depth of an op's span chain: a name, a duration, and the
// children recorded live while it ran (deepest level only).
type level struct {
	name string
	dur  time.Duration
	kids []childSpan
}

// addOp records one op's chain of nested levels, outermost first. Each
// level was timed on its own replay of the op, so an inner level can come
// out longer than the one around it; it is clipped to fit and the clipped
// time is accounted, so the tree is always well nested and the distortion
// is visible.
func (l *spanLog) addOp(op int, chain []level) {
	parent := -1
	lo, hi := int64(0), int64(0)
	for d, lv := range chain {
		dur := int64(lv.dur)
		if d == 0 {
			lo, hi = 0, dur
			l.total += dur
		} else {
			if room := hi - lo; dur > room {
				l.clipped += dur - room
				dur = room
			}
			// Centre the inner level in the outer one: what surrounds it
			// (request parsing before, encoding and the wire after) is
			// not observable from outside, only its sum is.
			pad := (hi - lo - dur) / 2
			lo, hi = lo+pad, lo+pad+dur
		}
		id := len(l.spans)
		l.spans = append(l.spans, spanRec{Op: op, ID: id, Parent: parent, Name: lv.name, Start: lo, End: hi})
		for _, k := range lv.kids {
			ks, ke := lo+int64(k.start), lo+int64(k.end)
			if ke > hi {
				l.clipped += ke - hi
				ke = hi
			}
			if ks > ke {
				ks = ke
			}
			l.spans = append(l.spans, spanRec{Op: op, ID: len(l.spans), Parent: id, Name: k.name, Start: ks, End: ke})
		}
		parent = id
	}
}

// selfTimes returns, per span name, the total self time (duration minus
// the part covered by children) and the span count.
func (l *spanLog) selfTimes() (self map[string]int64, count map[string]int) {
	childSum := make([]int64, len(l.spans))
	for i := range l.spans {
		if p := l.spans[i].Parent; p >= 0 {
			childSum[p] += l.spans[i].dur()
		}
	}
	self, count = map[string]int64{}, map[string]int{}
	for i := range l.spans {
		s := &l.spans[i]
		self[s.Name] += s.dur() - childSum[i]
		count[s.Name]++
	}
	return self, count
}

// wellNested checks the invariants readers of the trace rely on: every
// span has a non-negative duration, every parent exists, belongs to the
// same op and contains its child, and siblings recorded live do not
// overlap.
func (l *spanLog) wellNested() error {
	lastEnd := map[int]int64{} // parent id → end of its latest child
	for i := range l.spans {
		s := &l.spans[i]
		if s.ID != i {
			return fmt.Errorf("span %d has id %d", i, s.ID)
		}
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		if s.Parent >= i {
			return fmt.Errorf("span %d (%s) precedes its parent %d", i, s.Name, s.Parent)
		}
		p := &l.spans[s.Parent]
		if p.Op != s.Op {
			return fmt.Errorf("span %d (%s) is in op %d, its parent in op %d", i, s.Name, s.Op, p.Op)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) [%d,%d] leaves its parent %s [%d,%d]", i, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
		if s.Start < lastEnd[s.Parent] {
			return fmt.Errorf("span %d (%s) overlaps its previous sibling", i, s.Name)
		}
		lastEnd[s.Parent] = s.End
	}
	return nil
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
