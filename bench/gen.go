package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"raqo/internal/catalog"
	"raqo/internal/feedback"
	"raqo/internal/fleet/ring"
	"raqo/internal/workload"
)

// This file turns -seed into inputs. Everything the system under test
// ever sees is generated here, before any timer starts: the same seed
// gives byte-identical op streams on every commit, so counts repeat and
// memory is compared at equal work. The system never receives the seed.

// op is one pre-generated operation. HTTP workloads carry the complete
// serialized request, so the timed loop does no formatting.
type op struct {
	class uint8  // index into the workload's classes
	req   []byte // serialized HTTP/1.1 request; nil for plan_scale
	// arg is class-specific: the index into the workload's query table
	// for optimize and plan ops, the batch size for feedback ops.
	arg int
}

// stream is a workload's generated inputs: warm ops first, measured after.
type stream struct {
	warm []op
	ops  []op
}

// hash digests every byte the system will be sent, in order. Two streams
// with equal hashes are the same work.
func (s *stream) hash() string {
	h := sha256.New()
	var hdr [9]byte
	for _, part := range [][]op{s.warm, s.ops} {
		for i := range part {
			o := &part[i]
			hdr[0] = o.class
			for b := 0; b < 8; b++ {
				hdr[1+b] = byte(uint64(o.arg) >> (8 * b))
			}
			h.Write(hdr[:])
			h.Write(o.req)
		}
		h.Write([]byte{0xff})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// benchHost is the Host header of every generated request; the bound
// address is not known (and must not matter) when requests are generated.
const benchHost = "raqo-bench"

// httpReq serializes one HTTP/1.1 keep-alive request.
func httpReq(method, path string, body []byte) []byte {
	b := make([]byte, 0, 128+len(body))
	b = append(b, method...)
	b = append(b, ' ')
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: "+benchHost+"\r\n"...)
	if body != nil {
		b = append(b, "Content-Type: application/json\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(body)), 10)
		b = append(b, "\r\n"...)
	}
	b = append(b, "\r\n"...)
	return append(b, body...)
}

// pick draws an index from cumulative weights (ascending, last = total).
func pick(rng *rand.Rand, cum []int) int {
	x := rng.Intn(cum[len(cum)-1])
	for i, c := range cum {
		if x < c {
			return i
		}
	}
	return len(cum) - 1
}

// tpchNames are the paper's four evaluation queries.
var tpchNames = workload.QueryNames

// optimizeBody is the /v1/optimize body for a named TPC-H query.
func optimizeBody(name string) []byte { return []byte(`{"query":"` + name + `"}`) }

// --- serve_warm ---------------------------------------------------------

// genServeWarm draws the four evaluation queries uniformly. Classes are
// the query names: three small queries share one latency mode (75% of
// ops, so p50 sits mid-mode) and All is its own (25%, so p90 sits inside
// it, 15 points from the boundary).
func genServeWarm(rng *rand.Rand, n int) []op {
	reqs := make([][]byte, len(tpchNames))
	for i, name := range tpchNames {
		reqs[i] = httpReq("POST", "/v1/optimize", optimizeBody(name))
	}
	ops := make([]op, n)
	for i := range ops {
		k := rng.Intn(len(tpchNames))
		ops[i] = op{class: uint8(k), req: reqs[k], arg: k}
	}
	return ops
}

// --- submit_mix ---------------------------------------------------------

// benchTenants are the three weighted tenants of submit_mix (and the
// candidates fleet_hop draws its B-owned tenants from).
var benchTenants = []struct {
	name   string
	weight float64
}{{"etl", 3}, {"adhoc", 2}, {"batch", 1}}

// Class indices of submit_mix.
const (
	smSubmit = iota
	smCloud
	smStats
)

var submitMixClasses = []string{"submit", "cloud_submit", "stats"}

// submitMixShares are the op shares of submit_mix in percent.
var submitMixShares = []int{60, 30, 10}

func cumulative(shares []int) []int {
	cum := make([]int, len(shares))
	t := 0
	for i, s := range shares {
		t += s
		cum[i] = t
	}
	return cum
}

func genSubmitMix(rng *rand.Rand, n int) []op {
	policies := []string{"reoptimize", "reoptimize", "wait", "degrade"}       // 2:1:1
	recoveries := []string{"reoptimize", "reoptimize", "ondemand", "degrade"} // 2:1:1
	stats := [][]byte{
		httpReq("GET", "/v1/arbiter/stats", nil),
		httpReq("GET", "/v1/cloud/stats", nil),
	}
	cum := cumulative(submitMixShares)
	ops := make([]op, n)
	for i := range ops {
		switch pick(rng, cum) {
		case smSubmit:
			body := fmt.Sprintf(`{"tenant":%q,"query":%q,"policy":%q}`,
				benchTenants[rng.Intn(len(benchTenants))].name,
				tpchNames[rng.Intn(len(tpchNames))],
				policies[rng.Intn(len(policies))])
			ops[i] = op{class: smSubmit, req: httpReq("POST", "/v1/submit", []byte(body))}
		case smCloud:
			body := fmt.Sprintf(`{"tenant":%q,"query":%q,"recovery":%q}`,
				benchTenants[rng.Intn(len(benchTenants))].name,
				tpchNames[rng.Intn(len(tpchNames))],
				recoveries[rng.Intn(len(recoveries))])
			ops[i] = op{class: smCloud, req: httpReq("POST", "/v1/cloud/submit", []byte(body))}
		default:
			ops[i] = op{class: smStats, req: stats[rng.Intn(len(stats))]}
		}
	}
	return ops
}

// --- feedback_rw --------------------------------------------------------

// Class indices of feedback_rw.
const (
	fbFeedback = iota
	fbOptimize
	fbHistory
	fbModel
)

var feedbackClasses = []string{"feedback", "optimize", "history", "model"}

// feedbackShares are the op shares of feedback_rw in percent. Ordered by
// seed-commit median latency the classes are model (~70 µs), optimize
// (~90), feedback (~240) and history (~1 ms), so the mode boundaries fall
// at 7, 27 and 82 percentile points: p50 sits inside the feedback writes
// and p90 inside the history reads, 8 points past the boundary. (At the
// issue's nominal 60/25/15 split the history share ended at the 92nd
// percentile, 2 points from p90.)
var feedbackShares = []int{55, 20, 18, 7}

const (
	// feedbackBatch is the observations per POST /v1/feedback.
	feedbackBatch = 8
	// preloadObservations is the size of the journal and history state a
	// feedback_rw server restarts on (tests use less).
	preloadObservations = 50_000
	// feedbackEpoch is the ObservedAt of the first preloaded observation.
	// Fixed, not wall time: the stream must not depend on when it is made.
	feedbackEpoch = 1_700_000_000
	// batchesPerSecond is how many generated batches share one ObservedAt
	// second, preloaded or sent during a run: 80 observations per virtual
	// second throughout. One density keeps every minute bucket a history
	// query merges equally full from the first op to the last, and the slow
	// clock keeps the rollup maps it walks from growing by more than a few
	// buckets over a run — both are needed for latency to stay stationary.
	batchesPerSecond = 10
	// historyRange is the fixed width of every generated history query:
	// ten minute-buckets, all inside the preloaded span from the start.
	historyRange = 600
)

// historySeries is the series every generated history query reads.
var historySeries = feedback.RelErrSeries("hive", "query")

// genObservation draws one plausible execution observation: a two-join
// plan whose operators were predicted within ±30% of what was observed.
func genObservation(rng *rand.Rand, at int64) feedback.Observation {
	o := feedback.Observation{
		Signature:  "bench-" + strconv.Itoa(rng.Intn(64)),
		Engine:     "hive",
		ObservedAt: at,
	}
	algos := []string{"SMJ", "BHJ"}
	for j := 0; j < 2; j++ {
		obs := 5 + 200*rng.Float64()
		pred := obs * (0.7 + 0.6*rng.Float64())
		o.Operators = append(o.Operators, feedback.OperatorSample{
			Algo:             algos[rng.Intn(2)],
			SSGB:             0.1 + 8*rng.Float64(),
			CSGB:             float64(1 + rng.Intn(10)),
			NC:               float64(10 + rng.Intn(91)),
			PredictedSeconds: pred,
			ObservedSeconds:  obs,
		})
		o.PredictedSeconds += pred
		o.ObservedSeconds += obs
	}
	o.PredictedDollars = 0
	return o
}

// obsPerSecond is the observation density on the virtual clock.
const obsPerSecond = feedbackBatch * batchesPerSecond

// genPreload draws the observations the feedback_rw server's on-disk
// state is built from, obsPerSecond per virtual second from feedbackEpoch.
func genPreload(rng *rand.Rand, n int) []feedback.Observation {
	out := make([]feedback.Observation, n)
	for i := range out {
		out[i] = genObservation(rng, feedbackEpoch+int64(i/obsPerSecond))
	}
	return out
}

// genFeedbackRW draws feedback_rw's ops for a server restarted on preload
// observations: generated timestamps continue where the preload ended.
func genFeedbackRW(rng *rand.Rand, n, preload int) []op {
	model := httpReq("GET", "/v1/model", nil)
	optimize := make([][]byte, len(tpchNames))
	for i, name := range tpchNames {
		optimize[i] = httpReq("POST", "/v1/optimize", optimizeBody(name))
	}
	cum := cumulative(feedbackShares)
	ops := make([]op, n)
	batches := int64(0)
	now := func() int64 { return feedbackEpoch + int64(preload/obsPerSecond) + batches/batchesPerSecond }
	for i := range ops {
		switch pick(rng, cum) {
		case fbFeedback:
			req := struct {
				Observations []feedback.Observation `json:"observations"`
			}{}
			for j := 0; j < feedbackBatch; j++ {
				req.Observations = append(req.Observations, genObservation(rng, now()))
			}
			batches++
			body, err := json.Marshal(req)
			if err != nil {
				panic(err) // plain structs of numbers and strings
			}
			ops[i] = op{class: fbFeedback, req: httpReq("POST", "/v1/feedback", body), arg: feedbackBatch}
		case fbOptimize:
			k := rng.Intn(len(tpchNames))
			ops[i] = op{class: fbOptimize, req: optimize[k], arg: k}
		case fbHistory:
			to := now() + 1
			path := fmt.Sprintf("/v1/history?series=%s&from=%d&to=%d&step=60", historySeries, to-historyRange, to)
			ops[i] = op{class: fbHistory, req: httpReq("GET", path, nil)}
		default:
			ops[i] = op{class: fbModel, req: model}
		}
	}
	return ops
}

// --- fleet_hop ----------------------------------------------------------

// The two fleet nodes listen on fixed loopback addresses. Ring placement
// is a pure function of the member addresses, so fixed addresses are what
// lets the generator — not the running system — decide which tenants and
// query keys node B owns, keeping the stream a function of the seed only.
const (
	fleetAddrA = "127.0.71.1:7411"
	fleetAddrB = "127.0.71.2:7411"
)

// Class indices of fleet_hop.
const (
	fhSubmit = iota
	fhOptimize
)

var fleetHopClasses = []string{"forwarded_submit", "hot_optimize"}

// fleetHopShares are the op shares of fleet_hop in percent: nominally
// 75/25, drawn at 77/23 so that the share of requests node A forwards
// stays at or above 0.75 on every seed despite sampling noise. Hot-cache
// hits (~35 µs) and forwarded submits (~125 µs) are two latency modes
// with the boundary at the 23rd percentile, 27 points below p50.
var fleetHopShares = []int{77, 23}

// fleetRing is the ring both nodes build over the fixed membership.
func fleetRing() *ring.Ring {
	r, err := ring.New([]string{fleetAddrA, fleetAddrB}, ring.DefaultVNodes)
	if err != nil {
		panic(err) // two distinct literal addresses
	}
	return r
}

// fleetTenants returns the first three candidate tenant names node B owns.
// Both nodes' arbiters are configured with exactly these.
func fleetTenants() []string {
	r := fleetRing()
	var out []string
	for i := 0; len(out) < 3; i++ {
		name := "tenant-" + strconv.Itoa(i)
		if r.Owner("t/"+name) == fleetAddrB {
			out = append(out, name)
		}
	}
	return out
}

// subGBTables are the TPC-H tables under 1 GB at the serving scale.
// Queries over them are left out of fleet_hop: the server's resource-plan
// cache matches data sizes within 1 GB, so for a sub-GB build side it
// answers with a neighbour's configuration and a modelled time far from
// the from-scratch reference (9.7 s against 0.1 s for lineitem ⋈ supplier
// on the seed commit) — a plan-quality cost of caching worth knowing, but
// one that would fail this workload's answer check on every commit.
var subGBTables = map[string]bool{catalog.Nation: true, catalog.Region: true, catalog.Supplier: true}

// fleetQueries returns up to max distinct two- and three-relation queries
// over TPC-H's large tables whose routing key node B owns, in a fixed
// order.
func fleetQueries(sch *catalog.Schema, max int) [][]string {
	r := fleetRing()
	rng := rand.New(rand.NewSource(1)) // enumeration order only; not the run seed
	seen := map[string]bool{}
	var out [][]string
	for tries := 0; len(out) < max && tries < 10_000; tries++ {
		q, err := workload.RandomQuery(rng, sch, 2+rng.Intn(2))
		if err != nil {
			continue
		}
		key := "q/" + strings.Join(q.Rels, ",")
		small := false
		for _, rel := range q.Rels {
			small = small || subGBTables[rel]
		}
		if seen[key] || small {
			continue
		}
		seen[key] = true
		if r.Owner(key) == fleetAddrB {
			out = append(out, q.Rels)
		}
	}
	return out
}

// fleetQueryCount is how many distinct B-owned optimize bodies fleet_hop
// cycles through; all fit node A's hot cache.
const fleetQueryCount = 6

func genFleetHop(rng *rand.Rand, n int, queries [][]string) []op {
	tenants := fleetTenants()
	policies := []string{"reoptimize", "reoptimize", "wait", "degrade"}
	optimize := make([][]byte, len(queries))
	for i, rels := range queries {
		body, err := json.Marshal(struct {
			Relations []string `json:"relations"`
		}{rels})
		if err != nil {
			panic(err)
		}
		optimize[i] = httpReq("POST", "/v1/optimize", body)
	}
	cum := cumulative(fleetHopShares)
	ops := make([]op, n)
	for i := range ops {
		if pick(rng, cum) == fhSubmit {
			body := fmt.Sprintf(`{"tenant":%q,"query":%q,"policy":%q}`,
				tenants[rng.Intn(len(tenants))],
				tpchNames[rng.Intn(len(tpchNames))],
				policies[rng.Intn(len(policies))])
			ops[i] = op{class: fhSubmit, req: httpReq("POST", "/v1/submit", []byte(body))}
			continue
		}
		k := rng.Intn(len(optimize))
		ops[i] = op{class: fhOptimize, req: optimize[k], arg: k}
	}
	return ops
}

// --- plan_scale ---------------------------------------------------------

// planQuery is one entry of plan_scale's query pool.
type planQuery struct {
	schema int   // 0 = 30-table schema, 1 = 100-table schema
	class  uint8 // index into planScaleKinds
	rels   []string
}

// planKind is one (planner, query size) class of plan_scale and how many
// of the pool's queries belong to it.
type planKind struct {
	name       string
	randomized bool
	size       int
	count      int
}

// planScaleKinds fixes the pool's composition. Ordered by seed-commit
// median latency the classes are selinger-8 (0.26 ms), randomized-20
// (0.43), selinger-10 (0.80), randomized-30 (1.2) and selinger-12 (2.6),
// so the boundaries between latency modes fall at 4.7, 29.7, 34.4 and 75
// percentile points: p50 sits inside randomized-30 and p90 inside
// selinger-12, each 15 points from the nearest boundary. A 60-way
// randomized query plans in ~8 ms here and would own p90, so the
// randomized sizes stop at 30.
var planScaleKinds = []planKind{
	{"selinger-8", false, 8, 3},
	{"selinger-10", false, 10, 3},
	{"selinger-12", false, 12, 16},
	{"randomized-20", true, 20, 16},
	{"randomized-30", true, 30, 26},
}

// planPoolSize is the number of distinct queries plan_scale cycles over.
const planPoolSize = 64

// planScalePasses is how many passes over the pool one window holds: two,
// so a window has 128 ops and 12 samples beyond its p90.
const planScalePasses = 2

// planPoolSeed fixes the two random schemas and the query pool. They are
// plan_scale's database and query set, as TPC-H and its four queries are
// the served workloads': fixed on every run, so runs with different
// -seed values measure the same queries in a different order.
const planPoolSeed = 715

func planScaleClasses() []string {
	out := make([]string, len(planScaleKinds))
	for i, k := range planScaleKinds {
		out[i] = k.name
	}
	return out
}

func planScaleShares() []int {
	out := make([]int, len(planScaleKinds))
	for i, k := range planScaleKinds {
		out[i] = 100 * k.count / planPoolSize
	}
	return out
}

// genPlanPool draws the two random schemas (30 and 100 tables) and the
// query pool from planPoolSeed.
func genPlanPool() ([]*catalog.Schema, []planQuery, error) {
	rng := rand.New(rand.NewSource(planPoolSeed))
	var schemas []*catalog.Schema
	for _, n := range []int{30, 100} {
		s, err := catalog.Random(rng, n, catalog.DefaultRandomConfig())
		if err != nil {
			return nil, nil, err
		}
		schemas = append(schemas, s)
	}
	var pool []planQuery
	for c, kind := range planScaleKinds {
		for i := 0; i < kind.count; i++ {
			pq := planQuery{class: uint8(c), schema: rng.Intn(len(schemas))}
			q, err := workload.RandomQuery(rng, schemas[pq.schema], kind.size)
			if err != nil {
				return nil, nil, err
			}
			pq.rels = q.Rels
			pool = append(pool, pq)
		}
	}
	if len(pool) != planPoolSize {
		return nil, nil, fmt.Errorf("plan_scale: kinds sum to %d queries, want %d", len(pool), planPoolSize)
	}
	return schemas, pool, nil
}

// genPlanScale emits whole passes over the pool, each in a fresh order
// drawn from rng: pass p occupies ops [p·P, (p+1)·P) for a pool of P.
func genPlanScale(rng *rand.Rand, pool []planQuery, n int) []op {
	ops := make([]op, n)
	var order []int
	for i := range ops {
		if i%len(pool) == 0 {
			order = rng.Perm(len(pool))
		}
		k := order[i%len(pool)]
		ops[i] = op{class: pool[k].class, arg: k}
	}
	return ops
}
