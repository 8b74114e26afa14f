package cloud

import (
	"container/heap"
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

// refFaultHeap is faultHeap through container/heap, the order it must keep.
type refFaultHeap []FaultEvent

func (h refFaultHeap) Len() int           { return len(h) }
func (h refFaultHeap) Less(i, j int) bool { return faultHeap(h).less(i, j) }
func (h refFaultHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refFaultHeap) Push(x any)        { *h = append(*h, x.(FaultEvent)) }
func (h *refFaultHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// TestFaultHeapMatchesContainerHeap: random schedules and PopDue calls,
// with times drawn from a few values and tokens from a few more so that
// ties on both are common, leave the injector's heap array equal to
// container/heap's after every step, and PopDue returns what popping
// container/heap returns, in its order.
func TestFaultHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	in, err := NewInjector(FaultConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var want refFaultHeap
	for step := 0; step < 20000; step++ {
		if rng.Intn(3) < 2 || len(want) == 0 {
			ev := FaultEvent{At: float64(rng.Intn(8)), Token: int64(rng.Intn(16)), Kind: FaultKind(rng.Intn(2))}
			in.Schedule(ev)
			heap.Push(&want, ev)
		} else {
			now := float64(rng.Intn(8))
			got := in.PopDue(now)
			var popped []FaultEvent
			for len(want) > 0 && want[0].At <= now {
				popped = append(popped, heap.Pop(&want).(FaultEvent))
			}
			if !slices.Equal(got, popped) {
				t.Fatalf("step %d: PopDue(%g) %+v, container/heap %+v", step, now, got, popped)
			}
		}
		if !slices.Equal(in.events, faultHeap(want)) {
			t.Fatalf("step %d: heap %+v, container/heap %+v", step, in.events, want)
		}
	}
}
