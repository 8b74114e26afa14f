package resource

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"raqo/internal/cluster"
	"raqo/internal/cost"
	"raqo/internal/plan"
)

// refCache is the independent reference for Cache's matching rule: an
// unsorted slice of entries per model, every lookup a full scan.
type refCache struct {
	mode      LookupMode
	threshold float64
	models    map[string][]refEntry
}

type refEntry struct {
	key float64
	val plan.Resources
}

// lookup scans every entry of model: below is the entry with the largest
// key under the probe, above the one with the smallest key at or over it,
// lows and highs the entries within threshold on either side.
func (r *refCache) lookup(model string, key float64, cond cluster.Conditions) (plan.Resources, bool) {
	var below, above *refEntry
	var lows, highs []refEntry
	for i := range r.models[model] {
		e := &r.models[model][i]
		if e.key < key {
			if below == nil || e.key > below.key {
				below = e
			}
			if key-e.key <= r.threshold {
				lows = append(lows, *e)
			}
		} else {
			if above == nil || e.key < above.key {
				above = e
			}
			if e.key-key <= r.threshold {
				highs = append(highs, *e)
			}
		}
	}
	if above != nil && above.key-key <= exactEps {
		return above.val, true
	}
	if below != nil && key-below.key <= exactEps {
		return below.val, true
	}
	switch r.mode {
	case NearestNeighbor:
		best := below // the lower key wins a tie
		if best == nil || (above != nil && above.key-key < key-below.key) {
			best = above
		}
		if best != nil && math.Abs(best.key-key) <= r.threshold {
			return best.val, true
		}
	case WeightedAverage:
		// Summed downward from the probe, then upward.
		sort.Slice(lows, func(i, j int) bool { return lows[i].key > lows[j].key })
		sort.Slice(highs, func(i, j int) bool { return highs[i].key < highs[j].key })
		var wSum, ncSum, gbSum float64
		for _, e := range append(lows, highs...) {
			w := 1 / (math.Abs(e.key-key) + exactEps)
			wSum += w
			ncSum += w * float64(e.val.Containers)
			gbSum += w * e.val.ContainerGB
		}
		if wSum > 0 {
			return cond.Clamp(plan.Resources{Containers: int(math.Round(ncSum / wSum)), ContainerGB: gbSum / wSum}), true
		}
	}
	return plan.Resources{}, false
}

// keyedPlanner is a stand-in inner planner whose answer is a pure function
// of (model, key), different for neighbouring keys, so a lookup that
// matched the wrong entry returns visibly wrong resources.
type keyedPlanner struct{}

func (keyedPlanner) Plan(m cost.Model, ssGB float64, _ cluster.Conditions) (plan.Resources, error) {
	h := math.Float64bits(ssGB)*0x9e3779b97f4a7c15 + uint64(len(m.Name()))
	return plan.Resources{Containers: 1 + int((h>>40)%100), ContainerGB: 1 + float64((h>>20)%10)}, nil
}

func (keyedPlanner) Evaluations() int64 { return 0 }

// cacheOp is one step of a differential sequence: a Plan of key under one
// of two models, or a Reset.
type cacheOp struct {
	reset bool
	model int
	key   float64
}

var (
	oracleThresholds = []float64{0, 1e-5, 0.01, 1}
	// oracleOffsets place keys on and around whole-GB values: inside and
	// just outside exactEps, on either side of every threshold above, and
	// far enough apart that several entries fall inside one threshold.
	oracleOffsets = []float64{0, 5e-10, 6e-10, 2e-9, 4e-6, 6e-6, 1e-5, 0.004, 0.006, 0.01, 0.3, 0.5}
	oracleModels  = []cost.Model{
		cost.ModelFunc{ModelName: "a", Fn: func(ss, cs, nc float64) float64 { return ss }},
		cost.ModelFunc{ModelName: "bb", Fn: func(ss, cs, nc float64) float64 { return ss }},
	}
)

// decodeCacheOp maps two bytes onto an op: a's low three bits pick the
// whole-GB value, bit 3 the model, a >= 0xf0 is a Reset; b picks the
// offset and its sign.
func decodeCacheOp(a, b byte) cacheOp {
	if a >= 0xf0 {
		return cacheOp{reset: true}
	}
	off := oracleOffsets[int(b>>1)%len(oracleOffsets)]
	if b&1 == 1 {
		off = -off
	}
	return cacheOp{model: int(a >> 3 & 1), key: float64(a&7) + off}
}

// checkAgainstOracle runs ops through a Cache and the reference and
// requires the same hit/miss and == resources at every step.
func checkAgainstOracle(t *testing.T, mode LookupMode, threshold float64, ops []cacheOp) {
	t.Helper()
	cond := cluster.Default()
	c := &Cache{Inner: keyedPlanner{}, Mode: mode, ThresholdGB: threshold}
	ref := &refCache{mode: mode, threshold: threshold, models: map[string][]refEntry{}}
	for i, op := range ops {
		if op.reset {
			c.Reset()
			ref.models = map[string][]refEntry{}
			continue
		}
		m := oracleModels[op.model]
		want, wantHit := ref.lookup(m.Name(), op.key, cond)
		if wantHit {
			want = cond.Clamp(want)
		} else {
			want, _ = keyedPlanner{}.Plan(m, op.key, cond)
			ref.models[m.Name()] = append(ref.models[m.Name()], refEntry{op.key, want})
		}
		hits := c.Hits()
		got, err := c.Plan(m, op.key, cond)
		if err != nil {
			t.Fatal(err)
		}
		if gotHit := c.Hits() > hits; gotHit != wantHit || got != want {
			t.Fatalf("%v threshold %g, op %d (model %s, key %.17g): got %v hit=%v, reference %v hit=%v",
				mode, threshold, i, m.Name(), op.key, got, gotHit, want, wantHit)
		}
	}
	n := 0
	for _, es := range ref.models {
		n += len(es)
	}
	if c.Size() != n {
		t.Fatalf("%v threshold %g: cache holds %d entries, reference %d", mode, threshold, c.Size(), n)
	}
}

// TestCacheMatchesLinearScan is the differential test of the cache's
// matching rule: seeded random insert/probe sequences over two interleaved
// models, keys straddling whole-GB values, a Reset in the middle, every
// mode at every threshold.
func TestCacheMatchesLinearScan(t *testing.T) {
	for _, mode := range []LookupMode{Exact, NearestNeighbor, WeightedAverage} {
		for _, threshold := range oracleThresholds {
			for seed := int64(1); seed <= 8; seed++ {
				rng := rand.New(rand.NewSource(seed))
				ops := make([]cacheOp, 400)
				for i := range ops {
					ops[i] = decodeCacheOp(byte(rng.Intn(0xf0)), byte(rng.Intn(256)))
				}
				ops[len(ops)/2] = cacheOp{reset: true}
				checkAgainstOracle(t, mode, threshold, ops)
			}
		}
	}
}

// TestLowerBoundMatchesSearchFloat64s holds the closure-free lower bound to
// the sort.SearchFloat64s it replaced: the same index for every key on
// empty, single and duplicate-heavy arrays, ±0, ±Inf, and arrays with NaNs
// in them, where `>=` is not monotone and only the same halving steps land
// on the same index.
func TestLowerBoundMatchesSearchFloat64s(t *testing.T) {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	arrays := [][]float64{
		nil,
		{},
		{1},
		{nan},
		{negZero, 0},
		{0, negZero},
		{1, 1, 1, 1},
		{1, 2, 2, 2, 3},
		{math.Inf(-1), -1, negZero, 0, 1, math.Inf(1)},
		{nan, 1, 2},
		{1, nan, 2},
		{1, 2, nan},
		{nan, nan, nan, nan, nan},
		{0, 0.5, nan, 0.5, 1, nan, 2, 3},
	}
	rng := rand.New(rand.NewSource(17))
	for range 200 {
		a := make([]float64, rng.Intn(40))
		for i := range a {
			a[i] = float64(rng.Intn(10)) / 2
		}
		sort.Float64s(a)
		for range rng.Intn(3) {
			if len(a) > 0 {
				a[rng.Intn(len(a))] = nan
			}
		}
		arrays = append(arrays, a)
	}
	keys := []float64{nan, negZero, 0, math.Inf(-1), math.Inf(1), -1, 0.5, 1, 1.5, 2, 2.5, 3, 5, 100}
	for _, a := range arrays {
		for _, key := range keys {
			if got, want := lowerBound(a, key), sort.SearchFloat64s(a, key); got != want {
				t.Fatalf("lowerBound(%v, %v) = %d, sort.SearchFloat64s %d", a, key, got, want)
			}
		}
	}
}

// FuzzCacheLookup decodes its input into a mode, a threshold and an op
// sequence (first byte, then two bytes per op) and holds the cache to the
// linear-scan reference. The seed corpus (below and under testdata/fuzz)
// runs under plain `go test`.
func FuzzCacheLookup(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 0, 2, 2, 0xf0, 0, 2, 3})
	f.Add([]byte("weighted averages around every whole gigabyte, then a reset, and again"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		mode := LookupMode(data[0] % 3)
		threshold := oracleThresholds[int(data[0]/3)%len(oracleThresholds)]
		var ops []cacheOp
		for i := 1; i+1 < len(data); i += 2 {
			ops = append(ops, decodeCacheOp(data[i], data[i+1]))
		}
		checkAgainstOracle(t, mode, threshold, ops)
	})
}
