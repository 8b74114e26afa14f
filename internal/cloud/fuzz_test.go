package cloud_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"raqo/internal/cloud"
	"raqo/internal/core"
	"raqo/internal/execsim"
	"raqo/internal/scheduler"
	"raqo/internal/telemetry"
	"raqo/internal/workload"
)

// byteReader hands out a fuzz input one byte at a time, zeros once spent.
type byteReader []byte

func (r *byteReader) next() int {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int(b)
}

// pick returns one of choices, selected by the next byte.
func pick[T any](r *byteReader, choices ...T) T { return choices[r.next()%len(choices)] }

// admissionScenario is one decoded FuzzAdmission input: a market, its
// faults and autoscaler, the tenants, and an arrival stream replayed
// either by Run or online by SubmitWaitWith.
type admissionScenario struct {
	market   cloud.Market
	faults   cloud.FaultConfig
	scaler   cloud.AutoscalerConfig
	tenants  []cloud.TenantConfig
	arrivals []cloud.Arrival
	online   bool
}

func decodeAdmission(data []byte) admissionScenario {
	r := byteReader(data)
	var sc admissionScenario
	for i, n := 0, 1+r.next()%3; i < n; i++ {
		c := cloud.InstanceClass{
			Name:        fmt.Sprintf("c%d", i),
			ContainerGB: pick(&r, 0.5, 2, 4, 6, 10),
			Count:       1 + r.next()%24,
		}
		c.Price = cloud.OnDemandRate(c.ContainerGB)
		if r.next()%2 == 1 {
			c.Tier, c.Price = cloud.Spot, cloud.SpotRate(c.ContainerGB, 0.7)
		}
		if grow := r.next() % 16; grow > 0 {
			c.MinCount, c.MaxCount = 1, c.Count+grow
			sc.scaler.Enabled = true
		}
		sc.market.Classes = append(sc.market.Classes, c)
	}
	// Spot lifetimes long against the runs, so recovery terminates.
	sc.faults = cloud.FaultConfig{
		Seed:                int64(r.next()),
		SpotMeanLifeSeconds: pick(&r, 0.0, 7200, 28800),
		StragglerProb:       pick(&r, 0.0, 0.2),
		OOMProb:             pick(&r, 0.0, 0.1),
		StormAtSeconds:      pick(&r, 0.0, 300),
	}
	for i, n := 0, 1+r.next()%3; i < n; i++ {
		sc.tenants = append(sc.tenants, cloud.TenantConfig{
			Name:   fmt.Sprintf("t%d", i),
			Weight: float64(r.next() % 4),
		})
	}
	sc.online = r.next()%4 == 0
	now := 0.0
	for i, n := 0, 1+r.next()%24; i < n; i++ {
		now += float64(r.next() * 8)
		sc.arrivals = append(sc.arrivals, cloud.Arrival{
			Tenant:   sc.tenants[r.next()%len(sc.tenants)].Name,
			Query:    pick(&r, workload.Q12, workload.Q3, workload.Q2, workload.All),
			Time:     now,
			Recovery: cloud.Recovery(r.next() % 3),
		})
		sc.arrivals[i].Policy = scheduler.Policy(r.next() % 3)
	}
	return sc
}

// runAdmission replays a scenario on a fresh arbiter planning with opt,
// drains it, checks the per-event and final invariants, and renders the
// outcome stream, stats and scale events.
func runAdmission(t *testing.T, opt *core.Optimizer, sc admissionScenario) string {
	t.Helper()
	cfg := testConfig(t, sc.market)
	cfg.Optimizer = opt
	cfg.Tenants = sc.tenants
	cfg.Faults, cfg.Autoscaler = sc.faults, sc.scaler
	cfg.Metrics = cloud.NewMetrics(telemetry.NewRegistry())
	var a *cloud.Arbiter
	var done []cloud.Outcome
	var err error
	// No class ever holds more containers than it has, nor fewer than none.
	poolSane := func() {
		p := a.Pool()
		for i := 0; i < p.Classes(); i++ {
			if free := p.FreeOf(i); free < 0 || free > p.CapacityOf(i) {
				t.Fatalf("class %s: %d free of %d", p.Class(i).Name, free, p.CapacityOf(i))
			}
		}
	}
	cfg.Hooks = cloud.Hooks{
		Admitted: func(*cloud.Outcome) { poolSane() },
		Completed: func(o *cloud.Outcome, _ *core.Decision, _ *execsim.Result) error {
			poolSane()
			done = append(done, *o)
			return nil
		},
	}
	if a, err = cloud.New(cfg); err != nil {
		t.Fatal(err)
	}
	if sc.online {
		for _, arr := range sc.arrivals {
			arr.Time = a.Now()
			if _, err := a.SubmitWaitWith(arr); err != nil &&
				!errors.Is(err, cloud.ErrRejected) && !strings.Contains(err.Error(), "failed to execute") {
				t.Fatalf("SubmitWaitWith: %v", err)
			}
		}
	} else if _, err := a.Run(sc.arrivals); err != nil {
		t.Fatal(err)
	}
	if err := a.Drain(); err != nil {
		t.Fatal(err)
	}
	st, n := a.Stats(), a.Counts()
	if st.Lost != 0 || st.Queued != 0 || st.InFlight != 0 || cfg.Metrics.Lost.Value() != 0 {
		t.Fatalf("drained to lost %d queued %d in flight %d (gauge %d)", st.Lost, st.Queued, st.InFlight, cfg.Metrics.Lost.Value())
	}
	if got := n.Submitted + n.Shed; got != int64(len(sc.arrivals)) {
		t.Fatalf("%d submitted + %d shed of %d arrivals", n.Submitted, n.Shed, len(sc.arrivals))
	}
	var b strings.Builder
	if int64(len(done)) != n.Completed {
		t.Fatalf("%d completions handed over, %d counted", len(done), n.Completed)
	}
	for _, o := range done {
		if !(o.Arrival <= o.Start && o.Start <= o.Finish) {
			t.Fatalf("%s/%s: arrival %g, start %g, finish %g", o.Tenant, o.Query, o.Arrival, o.Start, o.Finish)
		}
		fmt.Fprintln(&b, bitsString(reflect.ValueOf(o)))
	}
	fmt.Fprintln(&b, "stats", bitsString(reflect.ValueOf(st)))
	fmt.Fprintln(&b, "scale", bitsString(reflect.ValueOf(a.ScaleEvents())))
	return b.String()
}

// admissionSeeds are FuzzAdmission's seed inputs, each with the shape it
// decodes to (tenants, arrivals, online), so a decoder change cannot
// silently turn a seed into another scenario.
var admissionSeeds = []struct {
	data              []byte
	tenants, arrivals int
	online            bool
}{
	// A two-tier elastic market under every fault, three tenants, mixed
	// policies, replayed.
	{[]byte{1, 4, 11, 0, 0, 4, 19, 1, 12, 7, 1, 1, 1, 1, 2, 2, 1, 1, 1, 23, 1, 2, 1, 1, 1, 5, 2, 0, 2, 2, 3, 1, 1, 0, 1, 4, 2, 3, 1, 2, 1, 2, 1, 2, 1, 5, 0, 0, 0, 2, 2, 0, 2, 1, 1, 5, 1, 3, 2, 1, 1, 1, 0, 0, 2, 3, 0, 2, 2, 1, 5, 1, 3, 2, 1, 4, 1, 3, 2, 2, 2, 2, 0, 1, 2, 5, 1, 0, 2, 2, 5, 2, 2, 1, 2, 0, 1, 3, 0, 0, 0, 1, 1, 0, 0, 3, 1, 0, 0, 2, 3, 2, 2, 2, 0, 4, 0, 0, 1, 2, 0, 0, 0, 0, 1, 2, 2, 2, 0, 2, 2, 1, 2, 0, 1, 3, 1, 3, 2, 2}, 3, 24, false},
	// Three class sizes (one too small for any plan), stragglers and OOM,
	// submitted online.
	{[]byte{2, 0, 3, 0, 0, 2, 8, 1, 0, 3, 15, 0, 0, 11, 0, 1, 1, 0, 1, 1, 3, 0, 15, 2, 1, 3, 2, 2, 2, 0, 2, 1, 1, 2, 1, 2, 0, 1, 2, 1, 0, 1, 2, 2, 0, 0, 2, 2, 1, 1, 2, 2, 1, 2, 1, 3, 0, 2, 0, 0, 2, 1, 2, 1, 1, 2, 0, 1, 0, 1, 2, 2, 1, 1, 1, 0, 0, 2, 2, 0, 2, 2, 0, 2, 1, 1, 1, 0, 2, 1, 0, 0, 2, 1, 1, 1, 1, 0, 0, 1, 1, 2, 1}, 2, 16, true},
	// One fault-free on-demand class — the shared cluster — with a
	// Wait/Degrade/Reoptimize rotation.
	{[]byte{0, 4, 22, 0, 0, 0, 0, 0, 0, 0, 2, 2, 1, 1, 1, 23, 2, 0, 0, 0, 0, 0, 2, 1, 0, 1, 2, 2, 1, 0, 2, 2, 1, 0, 0, 0, 2, 2, 1, 0, 1, 3, 1, 2, 0, 2, 3, 1, 3, 0, 0, 2, 1, 3, 0, 1, 0, 1, 1, 0, 2, 1, 0, 3, 0, 0, 3, 2, 1, 0, 1, 0, 2, 3, 0, 2, 2, 2, 2, 0, 0, 1, 0, 2, 0, 1, 0, 0, 0, 0, 2, 0, 2, 1, 0, 0, 3, 2, 0, 0, 1, 0, 1, 0, 0, 2, 1, 2, 2, 0, 0, 1, 2, 0, 0, 1, 3, 0, 0, 0, 2, 2, 0, 2, 0, 0, 3, 0, 2, 0, 1, 1, 0, 0, 0, 2}, 3, 24, false},
	// Spot only, elastic, under a storm, recovering on demand that does not
	// exist: the revoked queries are rejected at drain.
	{[]byte{1, 4, 7, 1, 15, 1, 11, 1, 0, 5, 1, 0, 0, 1, 0, 0, 1, 11, 1, 0, 1, 1, 2, 3, 0, 2, 1, 2, 2, 0, 0, 1, 2, 7, 0, 3, 1, 2, 0, 0, 2, 1, 2, 3, 0, 2, 1, 2, 6, 0, 0, 1, 2, 7, 0, 2, 1, 2, 0, 0, 0, 1, 2, 2, 0, 0, 1, 2, 1, 0, 0, 1, 2, 1, 0, 3, 1, 2}, 1, 12, false},
}

// FuzzAdmission drives the admission engine over decoded markets (one to
// three classes, on-demand or spot, fixed or elastic), faults, weighted
// tenants, and arrival streams
// mixing policies and recoveries, replayed or submitted online. Every run
// drains to zero lost, keeps every class's free count within [0,
// capacity] at every admission and completion, orders arrival ≤ start ≤
// finish, and renders byte-identically on a second run. Every run plans
// with one optimizer built once per process, whose cost memo the runs
// share; TestAdmissionIgnoresWarmMemo holds a warm memo to a fresh one.
func FuzzAdmission(f *testing.F) {
	f.Add([]byte{})
	for _, seed := range admissionSeeds {
		sc := decodeAdmission(seed.data)
		if len(sc.tenants) != seed.tenants || len(sc.arrivals) != seed.arrivals || sc.online != seed.online {
			f.Fatalf("seed decodes to %d tenants, %d arrivals, online %t; want %d, %d, %t",
				len(sc.tenants), len(sc.arrivals), sc.online, seed.tenants, seed.arrivals, seed.online)
		}
		f.Add(seed.data)
	}
	models, _ := testFixtures(f)
	opt := newOptimizer(f, models)
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := decodeAdmission(data)
		if first, again := runAdmission(t, opt, sc), runAdmission(t, opt, sc); first != again {
			t.Fatalf("two runs of one scenario rendered differently:\n%s\n---\n%s", first, again)
		}
	})
}

// TestAdmissionIgnoresWarmMemo: a run renders the same whether its
// optimizer is fresh or has planned every seed scenario before, so
// FuzzAdmission's shared optimizer carries nothing from one input to the
// next.
func TestAdmissionIgnoresWarmMemo(t *testing.T) {
	models, _ := testFixtures(t)
	warm := newOptimizer(t, models)
	for _, seed := range admissionSeeds {
		runAdmission(t, warm, decodeAdmission(seed.data))
	}
	for i, seed := range admissionSeeds {
		sc := decodeAdmission(seed.data)
		if fresh, warmed := runAdmission(t, newOptimizer(t, models), sc), runAdmission(t, warm, sc); fresh != warmed {
			t.Fatalf("seed %d: a fresh optimizer and a warm one rendered differently:\n%s\n---\n%s", i, fresh, warmed)
		}
	}
}
