package arbiter_test

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"raqo/internal/arbiter"
	"raqo/internal/cloud"
	"raqo/internal/core"
	"raqo/internal/execsim"
	"raqo/internal/scheduler"
)

// mixedPath holds two mixed-policy streams (arrival i under
// scheduler.Policy(i%3)) on 80- and 40-container clusters, which the
// standalone shared-cluster arbiter replayed at commit 6561164, before it
// became the one-class case of internal/cloud's engine. Unlike the golden's
// single-policy streams, they tell the stashed re-planning pass from
// re-planning a head the moment it misses.
const mixedPath = "testdata/mixed_outcomes.txt"

// goldenSections splits committed outcome files into their sections, each
// the outcome lines and the stats line that follow a "== name" header.
func goldenSections(t *testing.T, paths ...string) map[string][]string {
	t.Helper()
	sections := map[string][]string{}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		name := ""
		for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
			if rest, ok := strings.CutPrefix(line, "== "); ok {
				name = rest
				continue
			}
			sections[name] = append(sections[name], line)
		}
	}
	return sections
}

// mixedArrivals is the testWorkload stream denser and in waves of burst,
// arrival i under scheduler.Policy(i%3).
func mixedArrivals(t *testing.T, burst int) []arbiter.Arrival {
	wl := testWorkload()
	wl.Arrivals, wl.MeanIntervalSeconds, wl.BurstSize = 48, 10, burst
	arrs := arrivals(t, wl, scheduler.Wait)
	for i := range arrs {
		arrs[i].Policy = scheduler.Policy(i % 3)
	}
	return arrs
}

// TestEngineReplaysArbiterGolden is the one-engine oracle: the golden's
// four streams and the two mixed-policy streams replayed through
// internal/cloud's admission engine itself — a market of one class of
// Capacity containers of Base.MaxContainerGB, price 0, no faults, no
// autoscaler — not through this package's Arbiter, with the recalibration
// section's feedback wired through the engine's completion hook. Every
// outcome and stats line must equal the committed files, which the
// standalone shared-cluster arbiter wrote before the engines merged.
func TestEngineReplaysArbiterGolden(t *testing.T) {
	want := goldenSections(t, goldenPath, mixedPath)
	replay := func(name string, cfg arbiter.Config, arrivals []arbiter.Arrival) {
		t.Helper()
		var done []cloud.Outcome
		recals, since := int64(0), 0
		hooks := cloud.Hooks{Completed: func(o *cloud.Outcome, d *core.Decision, res *execsim.Result) error {
			done = append(done, *o)
			if ob := cfg.Feedback; ob != nil {
				predicted, money := d.Time, d.Money
				if predicted <= 0 {
					v, err := ob.Recal.Models().PlanVector(d.Plan, cfg.Pricing)
					if err != nil {
						return nil
					}
					predicted, money = v.Time, v.Money
				}
				_, _ = ob.RecordAt(int64(o.Finish), cfg.Engine.Name, d.Plan, predicted, money, res)
				if since++; since >= cfg.RecalEvery {
					since = 0
					_, swapped, err := ob.Recal.MaybeRecalibrate()
					if swapped {
						recals++
					}
					return err
				}
			}
			return nil
		}}
		e, err := cloud.New(cloud.Config{
			Workload: cfg.Workload,
			Market: cloud.Market{Classes: []cloud.InstanceClass{{
				Name: "cluster", Tier: cloud.OnDemand, ContainerGB: cfg.Base.MaxContainerGB, Count: cfg.Capacity,
			}}},
			Hooks: hooks,
		})
		if err != nil {
			t.Fatal(err)
		}
		trace := make([]cloud.Arrival, len(arrivals))
		policies := make([]scheduler.Policy, len(arrivals))
		for i, arr := range arrivals {
			trace[i] = cloud.Arrival{Tenant: arr.Tenant, Query: arr.Query, Time: arr.Time}
			policies[i] = arr.Policy
		}
		if err := e.RunWith(trace, policies); err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, o := range done {
			got = append(got, bitsString(reflect.ValueOf(arbiter.Outcome{
				Tenant: o.Tenant, Query: o.Query, Policy: o.Policy,
				Arrival: o.Arrival, Start: o.Start, Finish: o.Finish,
				QueueSeconds: o.Start - o.Arrival, ExecSeconds: o.ExecSeconds,
				Replanned: o.Replanned, Degraded: o.Degraded,
				Containers: o.Containers, ContainerGB: o.ContainerGB,
			})))
		}
		st, n := e.Stats(), e.Counts()
		got = append(got, "stats "+bitsString(reflect.ValueOf(arbiter.Stats{
			Now: st.Now, Completed: st.Completed, InFlight: st.InFlight, Queued: st.Queued,
			Rejected: n.Shed + n.Dropped, Failed: n.Failed,
			AdmittedWait: n.Admitted[scheduler.Wait], AdmittedDeg: n.Admitted[scheduler.Degrade],
			AdmittedReopt: n.Admitted[scheduler.Reoptimize],
			Replanned:     n.Replanned, Degraded: n.Degraded, DegradeStalls: n.DegradeStalls,
			Recals: recals, FreeContainers: st.Free, HeldGB: e.Pool().HeldGB(), ReoptFull: n.ReoptFull,
		})))
		if w := want[name]; !reflect.DeepEqual(got, w) {
			t.Errorf("%s: engine replay differs from the golden (%d lines, want %d)", name, len(got), len(w))
			for i := 0; i < min(len(got), len(w)); i++ {
				if got[i] != w[i] {
					t.Errorf("%s line %d:\n got %s\nwant %s", name, i+1, got[i], w[i])
					break
				}
			}
		}
	}
	for _, policy := range []scheduler.Policy{scheduler.Wait, scheduler.Degrade, scheduler.Reoptimize} {
		replay(policy.String(), testConfig(t), arrivals(t, testWorkload(), policy))
	}
	cfg, _ := skewedRecalConfig(t)
	replay("reoptimize+recalibration", cfg, arrivals(t, singleTenantWorkload(), scheduler.Reoptimize))
	for _, c := range []struct{ capacity, burst int }{{80, 8}, {40, 4}} {
		cfg := testConfig(t)
		cfg.Capacity = c.capacity
		replay(fmt.Sprintf("mixed/capacity%d/burst%d", c.capacity, c.burst), cfg, mixedArrivals(t, c.burst))
	}
	if len(want) != 6 {
		t.Fatalf("outcome files hold %d sections, want 6", len(want))
	}
}
