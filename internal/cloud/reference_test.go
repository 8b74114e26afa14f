package cloud

import (
	"math"
	"math/rand"
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
		d.ExecSeconds = execSeconds * in.cfg.StragglerFactor
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
