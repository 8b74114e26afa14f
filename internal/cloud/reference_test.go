package cloud

import (
	"math"
	"math/rand"
	"testing"
)

// referenceDraw is Injector.Draw as it was before drawSource: a fresh
// math/rand source seeded per admission. The tests below hold the
// seed-free draw to it bit for bit.
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

// sourceStreamLen crosses every boundary of the recurrence: outputs 273
// (the tap starts reading the ring), 334 (the feed index wraps) and 607
// (the feed starts reading the ring), and then the ring's own wrap.
const sourceStreamLen = 2000

// checkSourceStream compares n outputs of src, re-seeded with seed, against
// rand.NewSource(seed).
func checkSourceStream(t *testing.T, src *drawSource, seed int64, n int) {
	t.Helper()
	want := rand.NewSource(seed).(rand.Source64)
	src.Seed(seed)
	for k := 0; k < n; k++ {
		if g, w := src.Uint64(), want.Uint64(); g != w {
			t.Fatalf("seed %d: output %d = %#x, rand.NewSource gives %#x", seed, k, g, w)
		}
	}
}

func TestDrawSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1, lcgMod, -lcgMod, lcgMod - 1, -(lcgMod - 1), lcgMod + 1, 2 * lcgMod,
		seedZero, -seedZero, math.MinInt64, math.MaxInt64, 1 << 62, -(1 << 62),
	}
	rng := rand.New(rand.NewSource(2026))
	for i := 0; i < 64; i++ {
		seeds = append(seeds, int64(rng.Uint64()))
	}
	// One source for every seed: a re-seed must leave nothing of the
	// previous stream behind.
	var src drawSource
	for _, seed := range seeds {
		checkSourceStream(t, &src, seed, sourceStreamLen)
	}

	// Through math/rand's own Rand, the way Draw reads it: Float64 and
	// ExpFloat64 consume Int63, and ExpFloat64 a variable number of them.
	r := rand.New(&src)
	for _, seed := range seeds[:8] {
		src.Seed(seed)
		want := rand.New(rand.NewSource(seed))
		for k := 0; k < 500; k++ {
			if g, w := r.ExpFloat64(), want.ExpFloat64(); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("seed %d: ExpFloat64 #%d = %v, want %v", seed, k, g, w)
			}
			if g, w := r.Float64(), want.Float64(); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("seed %d: Float64 #%d = %v, want %v", seed, k, g, w)
			}
		}
	}
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

func FuzzDrawSource(f *testing.F) {
	f.Add(int64(1), uint16(700))
	f.Add(int64(0), uint16(2000))
	f.Add(int64(math.MinInt64), uint16(608))
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		var src drawSource
		checkSourceStream(t, &src, seed, int(n)%(sourceStreamLen+1))
	})
}
