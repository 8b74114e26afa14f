package randsrc

import (
	"math"
	"math/rand"
	"testing"
)

// sourceStreamLen crosses every boundary of the recurrence: outputs 273
// (the tap starts reading the ring), 334 (the feed index wraps) and 607
// (the feed starts reading the ring), and then the ring's own wrap.
const sourceStreamLen = 2000

// checkSourceStream compares n outputs of src, re-seeded with seed, against
// rand.NewSource(seed).
func checkSourceStream(t *testing.T, src *Source, seed int64, n int) {
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
	var src Source
	for _, seed := range seeds {
		checkSourceStream(t, &src, seed, sourceStreamLen)
	}

	// Through math/rand's own Rand, the way its users read it: Float64 and
	// ExpFloat64 consume Int63, and ExpFloat64 a variable number of them;
	// Rand.Seed re-seeds the source and drops Rand's own read-ahead.
	r := rand.New(&src)
	for _, seed := range seeds[:8] {
		r.Seed(seed)
		want := rand.New(rand.NewSource(seed))
		for k := 0; k < 500; k++ {
			if g, w := r.ExpFloat64(), want.ExpFloat64(); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("seed %d: ExpFloat64 #%d = %v, want %v", seed, k, g, w)
			}
			if g, w := r.Float64(), want.Float64(); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("seed %d: Float64 #%d = %v, want %v", seed, k, g, w)
			}
			if g, w := r.Intn(k+1), want.Intn(k+1); g != w {
				t.Fatalf("seed %d: Intn(%d) = %d, want %d", seed, k+1, g, w)
			}
		}
	}
}

func FuzzDrawSource(f *testing.F) {
	f.Add(int64(1), uint16(700))
	f.Add(int64(0), uint16(2000))
	f.Add(int64(math.MinInt64), uint16(608))
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		var src Source
		checkSourceStream(t, &src, seed, int(n)%(sourceStreamLen+1))
	})
}
