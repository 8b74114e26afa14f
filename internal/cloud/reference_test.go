package cloud

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// referenceDraw is Injector.Draw as it was before its seed-free source: a
// fresh math/rand source seeded per admission. TestDrawMatchesReference
// holds the seed-free draw to it bit for bit.
func (in *Injector) referenceDraw(seq int64, tier Tier, start, execSeconds float64) Draw {
	d := Draw{ExecSeconds: execSeconds, PreemptAt: -1, OOMAt: -1}
	rng := rand.New(rand.NewSource(int64(splitmix(uint64(in.cfg.Seed) ^ splitmix(uint64(seq))))))
	// Fixed draw order: straggler, OOM, spot lifetime — consuming the
	// stream identically whether or not each process is enabled keeps a
	// single fault's schedule stable when another is toggled.
	pStraggle := rng.Float64()
	pOOM := rng.Float64()
	uOOM := rng.Float64()
	life := rng.ExpFloat64()
	if in.cfg.StragglerProb > 0 && pStraggle < in.cfg.StragglerProb {
		d.Straggler = true
		d.ExecSeconds = execSeconds * stragglerFactor
	}
	if in.cfg.OOMProb > 0 && pOOM < in.cfg.OOMProb && d.ExecSeconds > 0 {
		d.OOMAt = start + uOOM*d.ExecSeconds
	}
	if tier == Spot && in.cfg.SpotMeanLifeSeconds > 0 {
		if lifetime := life * in.cfg.SpotMeanLifeSeconds; lifetime < d.ExecSeconds {
			d.PreemptAt = start + lifetime
		}
	}
	return d
}

// sameDraw compares two draws bit for bit.
func sameDraw(a, b Draw) bool {
	return math.Float64bits(a.ExecSeconds) == math.Float64bits(b.ExecSeconds) &&
		a.Straggler == b.Straggler &&
		math.Float64bits(a.PreemptAt) == math.Float64bits(b.PreemptAt) &&
		math.Float64bits(a.OOMAt) == math.Float64bits(b.OOMAt)
}

func TestDrawMatchesReference(t *testing.T) {
	for _, seed := range []int64{7, -3} {
		in, err := NewInjector(FaultConfig{
			Seed:                seed,
			SpotMeanLifeSeconds: 600,
			StragglerProb:       0.3,
			OOMProb:             0.2,
			StormAtSeconds:      1e4,
		})
		if err != nil {
			t.Fatal(err)
		}
		fired := [3]int{}
		for seq := int64(1); seq <= 10000; seq++ {
			start, exec := float64(seq)*1.5, float64(10+seq%900)
			for _, tier := range []Tier{OnDemand, Spot} {
				got, want := in.Draw(seq, tier, start, exec), in.referenceDraw(seq, tier, start, exec)
				if !sameDraw(got, want) {
					t.Fatalf("seed %d seq %d %v: Draw %+v, reference %+v", seed, seq, tier, got, want)
				}
				if got.Straggler {
					fired[0]++
				}
				if got.OOMAt >= 0 {
					fired[1]++
				}
				if got.PreemptAt >= 0 {
					fired[2]++
				}
			}
		}
		for i, n := range fired {
			if n == 0 {
				t.Fatalf("seed %d: fault process %d never fired; the comparison covers nothing", seed, i)
			}
		}
	}
}

// TestInjectorEventOrderOracle: random schedules and PopDue calls, with
// times drawn from a few values and tokens from a few more so that ties
// on both, and whole equal keys, are common, keep the pending events equal
// to a stable sort of the schedule by (At, Token) after every step, and
// PopDue returns exactly the due prefix of that order.
func TestInjectorEventOrderOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	in, err := NewInjector(FaultConfig{})
	if err != nil {
		t.Fatal(err)
	}
	byKey := func(a, b FaultEvent) int {
		if a.At != b.At {
			return cmp.Compare(a.At, b.At)
		}
		return cmp.Compare(a.Token, b.Token)
	}
	var want []FaultEvent // the pending events, in scheduling order
	for step := 0; step < 20000; step++ {
		sorted := slices.Clone(want)
		slices.SortStableFunc(sorted, byKey)
		if rng.Intn(3) < 2 || len(want) == 0 {
			ev := FaultEvent{At: float64(rng.Intn(8)), Token: int64(rng.Intn(4)), Kind: FaultKind(rng.Intn(2))}
			in.Schedule(ev)
			want = append(want, ev)
		} else {
			now := float64(rng.Intn(8))
			due := 0
			for due < len(sorted) && sorted[due].At <= now {
				due++
			}
			if got := in.PopDue(now); !slices.Equal(got, sorted[:due]) {
				t.Fatalf("step %d: PopDue(%g) %+v, want %+v", step, now, got, sorted[:due])
			}
			want = slices.DeleteFunc(want, func(ev FaultEvent) bool { return ev.At <= now })
		}
		sorted = slices.Clone(want)
		slices.SortStableFunc(sorted, byKey)
		if !slices.Equal(in.events, sorted) {
			t.Fatalf("step %d: events %+v, want %+v", step, in.events, sorted)
		}
	}
}

// TestPoolPendingUpOrderOracle: random scale-up orders with lags drawn
// from a few values, so equal arrival times are common, and random
// advances keep each class's pending orders equal to a stable sort of
// its orders by arrival time after every step; Advance lands exactly the
// due prefix of that order, in order.
func TestPoolPendingUpOrderOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p, err := NewPool(Market{Classes: []InstanceClass{{Name: "c", ContainerGB: 4, Count: 1, Price: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	cs := p.classes[0]
	byAt := func(a, b pendingCap) int { return cmp.Compare(a.at, b.at) }
	var want []pendingCap // the pending orders, in order of ScaleUp
	for step := 0; step < 20000; step++ {
		sorted := slices.Clone(want)
		slices.SortStableFunc(sorted, byAt)
		if rng.Intn(3) < 2 || len(want) == 0 {
			lag := float64(1 + rng.Intn(4))
			n := 1 + rng.Intn(3)
			p.ScaleUp(0, n, lag)
			want = append(want, pendingCap{at: p.Now() + lag, n: n})
		} else {
			now := p.Now() + float64(rng.Intn(3))
			before := len(cs.provisionedAt)
			p.Advance(now)
			var landed []float64
			for _, pc := range sorted {
				if pc.at > now {
					break
				}
				for k := 0; k < pc.n; k++ {
					landed = append(landed, pc.at)
				}
			}
			if got := cs.provisionedAt[before:]; !slices.Equal(got, landed) {
				t.Fatalf("step %d: Advance(%g) provisioned %v, want %v", step, now, got, landed)
			}
			want = slices.DeleteFunc(want, func(pc pendingCap) bool { return pc.at <= now })
		}
		sorted = slices.Clone(want)
		slices.SortStableFunc(sorted, byAt)
		if !slices.Equal(cs.pendingUp, sorted) {
			t.Fatalf("step %d: pending %+v, want %+v", step, cs.pendingUp, sorted)
		}
	}
}
