package main

import (
	"testing"
	"time"
)

const us = time.Microsecond

// One op, three nested levels and two live children: self times must
// telescope to the root's duration.
func TestSpanSelfTimes(t *testing.T) {
	var l spanLog
	l.addOp(0, []level{
		{name: "net.roundtrip", dur: 100 * us},
		{name: "server.handler", dur: 60 * us},
		{name: "core.optimize", dur: 40 * us, kids: []childSpan{
			{name: "resource.plan", start: 5 * us, end: 15 * us},
			{name: "resource.plan", start: 20 * us, end: 25 * us},
		}},
	})
	if err := l.wellNested(); err != nil {
		t.Fatal(err)
	}
	self, count := l.selfTimes()
	want := map[string]time.Duration{
		"net.roundtrip":  40 * us,
		"server.handler": 20 * us,
		"core.optimize":  25 * us,
		"resource.plan":  15 * us,
	}
	var sum int64
	for name, w := range want {
		if self[name] != int64(w) {
			t.Errorf("self[%s] = %d ns, want %d", name, self[name], int64(w))
		}
		sum += self[name]
	}
	if sum != l.total || l.total != int64(100*us) {
		t.Errorf("self times sum to %d ns, root spans to %d", sum, l.total)
	}
	if count["resource.plan"] != 2 || count["net.roundtrip"] != 1 {
		t.Errorf("counts = %v", count)
	}
	if l.clipped != 0 {
		t.Errorf("clipped %d ns of a chain that fits", l.clipped)
	}
	// The handler is centred in the round trip, the optimizer in the handler.
	if h := l.spans[1]; h.Start != int64(20*us) || h.End != int64(80*us) {
		t.Errorf("handler span at [%d,%d]", h.Start, h.End)
	}
}

// An inner level that was measured longer than the one around it (they
// come from different replays) is clipped, and the clipping is reported.
func TestSpanClipping(t *testing.T) {
	var l spanLog
	l.addOp(0, []level{
		{name: "net.roundtrip", dur: 50 * us},
		{name: "server.handler", dur: 70 * us, kids: []childSpan{{name: "resource.plan", start: 10 * us, end: 65 * us}}},
	})
	if err := l.wellNested(); err != nil {
		t.Fatal(err)
	}
	if l.clipped != int64(20*us+15*us) {
		t.Errorf("clipped = %d ns, want %d", l.clipped, int64(35*us))
	}
	self, _ := l.selfTimes()
	if sum := self["net.roundtrip"] + self["server.handler"] + self["resource.plan"]; sum != l.total {
		t.Errorf("self times sum to %d, total %d", sum, l.total)
	}
}

func TestWellNestedRejectsBrokenTraces(t *testing.T) {
	good := func() spanLog {
		var l spanLog
		l.addOp(0, []level{{name: "a", dur: 10 * us}, {name: "b", dur: 4 * us}})
		l.addOp(1, []level{{name: "a", dur: 10 * us}})
		return l
	}
	for name, breakIt := range map[string]func(l *spanLog){
		"child leaves parent": func(l *spanLog) { l.spans[1].End = l.spans[0].End + 1 },
		"negative duration":   func(l *spanLog) { l.spans[2].End = l.spans[2].Start - 1 },
		"parent in other op":  func(l *spanLog) { l.spans[1].Op = 1 },
		"parent after child":  func(l *spanLog) { l.spans[1].Parent = 2 },
		"wrong id":            func(l *spanLog) { l.spans[2].ID = 7 },
		"overlapping siblings": func(l *spanLog) {
			l.spans = append(l.spans, spanRec{Op: 0, ID: 3, Parent: 0, Name: "c", Start: l.spans[1].Start, End: l.spans[1].End})
		},
	} {
		l := good()
		if err := l.wellNested(); err != nil {
			t.Fatalf("%s: the unbroken trace is rejected: %v", name, err)
		}
		breakIt(&l)
		if err := l.wellNested(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
