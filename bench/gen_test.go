package main

import (
	"bytes"
	"math"
	"strconv"
	"testing"
)

// testOptions sizes a workload small enough for tier-1.
func testOptions(t *testing.T, spec *workloadSpec, seed int64) *options {
	t.Helper()
	o := &options{spec: spec, seed: seed, seconds: nominalSeconds, n: 200, warm: 40, preload: 800, builds: 2, dir: t.TempDir()}
	if spec.name == "plan_scale" {
		o.n, o.warm = planScalePasses*planPoolSize, planPoolSize
	}
	return o
}

// streamHash generates a workload's inputs and digests them.
func streamHash(t *testing.T, spec *workloadSpec, seed int64) (string, *env) {
	t.Helper()
	o := testOptions(t, spec, seed)
	n, warm := o.sizes()
	e, err := generate(o, numWorkers, warm, n, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return e.stream.hash(), e
}

// The same seed must give byte-identical op streams — that is what makes
// two commits do the same work — and another seed must not.
func TestGeneratorDeterminism(t *testing.T) {
	for _, spec := range specs {
		t.Run(spec.name, func(t *testing.T) {
			a, ea := streamHash(t, spec, 7)
			b, _ := streamHash(t, spec, 7)
			c, _ := streamHash(t, spec, 8)
			if a != b {
				t.Errorf("seed 7 hashed to %s then %s", a, b)
			}
			if a == c {
				t.Errorf("seeds 7 and 8 both hashed to %s", a)
			}
			if n, warm := testOptions(t, spec, 7).sizes(); len(ea.stream.ops) != n || len(ea.stream.warm) != warm {
				t.Errorf("stream has %d+%d ops, want %d+%d", len(ea.stream.warm), len(ea.stream.ops), warm, n)
			}
		})
	}
}

// The hashes of one fixed seed are pinned: a change to a generator shows
// up here before it silently changes what every later run measures.
func TestGeneratorPinnedHashes(t *testing.T) {
	want := map[string]string{
		"serve_warm":  "d2363f3d00a0169a",
		"plan_scale":  "0c463b668abf19ef",
		"submit_mix":  "6272a5abf02b9bfb",
		"feedback_rw": "31c2be62e74ddc74",
		"fleet_hop":   "73d1ea6d8fcc4c44",
	}
	for _, spec := range specs {
		got, _ := streamHash(t, spec, 1)
		if got[:16] != want[spec.name] {
			t.Errorf("%s: seed 1 stream hash %s, pinned %s", spec.name, got[:16], want[spec.name])
		}
	}
}

// The system under test sees generated inputs only: no request carries
// the seed, and the system configuration is built without it.
func TestSeedNeverReachesSystem(t *testing.T) {
	const seed = 982451653 // distinctive enough to search for
	needle := []byte(strconv.Itoa(seed))
	for _, spec := range specs {
		_, e := streamHash(t, spec, seed)
		for _, part := range [][]op{e.stream.warm, e.stream.ops} {
			for i := range part {
				if bytes.Contains(part[i].req, needle) {
					t.Fatalf("%s: op %d carries the seed: %s", spec.name, i, part[i].req)
				}
			}
		}
	}
}

// Observed class shares must follow the nominal ones, and plan_scale's
// windows must each hold whole passes over its pool.
func TestGeneratedMix(t *testing.T) {
	for _, spec := range specs {
		o := &options{spec: spec, seed: 3, seconds: 1, warm: 10, preload: 800, builds: 1, n: 20000}
		if spec.name == "plan_scale" {
			o.n = spec.quantum
		}
		n, warm := o.sizes()
		e, err := generate(o, numWorkers, warm, n, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, len(spec.classes))
		for i := range e.stream.ops {
			counts[e.stream.ops[i].class]++
		}
		for c, name := range spec.classes {
			got := 100 * float64(counts[c]) / float64(n)
			if math.Abs(got-float64(spec.shares[c])) > 1.5 {
				t.Errorf("%s: class %s is %.1f%% of ops, nominal %d%%", spec.name, name, got, spec.shares[c])
			}
		}
		if spec.name != "plan_scale" {
			continue
		}
		for _, win := range splitWindows(n, numWindows) {
			seen := make([]int, planPoolSize)
			for i := win.lo; i < win.hi; i++ {
				seen[e.stream.ops[i].arg]++
			}
			for k, c := range seen {
				if c != planScalePasses {
					t.Fatalf("plan_scale: window [%d,%d) plans pool entry %d %d times, want %d", win.lo, win.hi, k, c, planScalePasses)
				}
			}
		}
	}
}

// fleet_hop's premise: node B owns every tenant and query key the
// generator uses, so every submit into A takes exactly one hop.
func TestFleetKeysBelongToB(t *testing.T) {
	r := fleetRing()
	tenants := fleetTenants()
	if len(tenants) != 3 {
		t.Fatalf("fleetTenants() = %v", tenants)
	}
	for _, name := range tenants {
		if owner := r.Owner("t/" + name); owner != fleetAddrB {
			t.Errorf("tenant %s is owned by %s", name, owner)
		}
	}
	_, e := streamHash(t, specByName("fleet_hop"), 1)
	if len(e.queries) == 0 {
		t.Fatal("fleet_hop has no optimize queries")
	}
	for _, rq := range e.queries {
		if owner := r.Owner("q/" + rq.name); owner != fleetAddrB {
			t.Errorf("query key %s is owned by %s", rq.name, owner)
		}
		for _, rel := range rq.q.Rels {
			if subGBTables[rel] {
				t.Errorf("query %s joins sub-GB table %s", rq.name, rel)
			}
		}
	}
}
