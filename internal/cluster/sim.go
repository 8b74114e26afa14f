package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Job is a unit of work submitted to the shared cluster: it needs a gang of
// containers for a given execution duration.
type Job struct {
	ID         int
	Arrival    float64 // seconds since trace start
	Containers int     // gang size; the job runs once all are allocated
	Duration   float64 // execution time once running, seconds
}

// JobResult records when a job started and the queue time it experienced.
type JobResult struct {
	Job
	Start     float64
	Finish    float64
	QueueTime float64 // Start - Arrival
}

// Ratio returns the queue-time / run-time ratio the paper plots in Fig 1.
func (r JobResult) Ratio() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return r.QueueTime / r.Duration
}

// Simulator is a discrete-event simulator of a shared cluster with a fixed
// container capacity and a FIFO admission queue: jobs wait until their full
// gang of containers is free (YARN capacity-scheduler-like behaviour at the
// granularity the paper's Figure 1 needs).
type Simulator struct {
	Capacity int // total containers in the cluster
}

// Run simulates the trace and returns per-job results in arrival order.
// Jobs demanding more containers than the cluster has are rejected with an
// error, since they would wait forever.
func (s *Simulator) Run(jobs []Job) ([]JobResult, error) {
	results, _, err := s.run(jobs, math.Inf(1))
	return results, err
}

// run replays the trace's discrete events (arrivals and gang finishes) in
// virtual-time order on a one-class Pool, stopping after the last event at
// or before stopAt. Admission is strict FIFO: the queue head waits until its
// full gang is free, and nothing behind it may overtake (YARN capacity-
// scheduler behaviour at the granularity Figure 1 needs). At a tied
// timestamp, finishing gangs release before arrivals are considered;
// because admission is a greedy prefix under monotonically growing free
// capacity, this yields the same results as interleaving them.
func (s *Simulator) run(jobs []Job, stopAt float64) ([]JobResult, *Pool, error) {
	if s.Capacity < 1 {
		return nil, nil, fmt.Errorf("cluster: simulator capacity %d < 1", s.Capacity)
	}
	ordered := append([]Job(nil), jobs...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Arrival < ordered[j].Arrival })
	for _, j := range ordered {
		if j.Containers < 1 || j.Containers > s.Capacity {
			return nil, nil, fmt.Errorf("cluster: job %d demands %d containers, capacity %d", j.ID, j.Containers, s.Capacity)
		}
		if j.Duration <= 0 {
			return nil, nil, fmt.Errorf("cluster: job %d has non-positive duration", j.ID)
		}
	}

	pool, err := NewPool(s.Capacity)
	if err != nil {
		return nil, nil, err
	}
	results := make([]JobResult, 0, len(ordered))
	queue := make([]Job, 0)
	next := 0

	admit := func() error {
		for len(queue) > 0 && queue[0].Containers <= pool.Free(0) {
			j := queue[0]
			queue = queue[1:]
			now := pool.Now()
			if _, err := pool.Allocate(0, j.Containers, 0, now+j.Duration); err != nil {
				return err
			}
			results = append(results, JobResult{
				Job:       j,
				Start:     now,
				Finish:    now + j.Duration,
				QueueTime: now - j.Arrival,
			})
		}
		return nil
	}

	for next < len(ordered) || len(queue) > 0 {
		// Decide the next event time: the next arrival or the next finish.
		arrivalT := -1.0
		if next < len(ordered) {
			arrivalT = ordered[next].Arrival
		}
		finishT, hasFinish := pool.NextFinish()
		var te float64
		switch {
		case arrivalT >= 0 && (!hasFinish || arrivalT <= finishT):
			te = arrivalT
		case hasFinish:
			te = finishT
		default:
			// Queue non-empty but nothing running and no arrivals: cannot
			// happen because any queued head fits capacity when idle.
			return nil, nil, fmt.Errorf("cluster: simulator deadlock with %d queued jobs", len(queue))
		}
		if te > stopAt {
			break
		}
		pool.Advance(te)
		for next < len(ordered) && ordered[next].Arrival <= te {
			queue = append(queue, ordered[next])
			next++
		}
		if err := admit(); err != nil {
			return nil, nil, err
		}
	}
	sort.SliceStable(results, func(i, j int) bool { return results[i].Arrival < results[j].Arrival })
	return results, pool, nil
}

// The synthetic shared-cluster trace stands in for the paper's production
// Microsoft traces: log-normal service times and variable gang sizes, at a
// utilisation high enough that most jobs queue (Fig 1: >80% of jobs wait
// at least as long as they run). Arrivals are bursty: scheduled pipelines
// fire in waves of traceBurstSize near-identical, tightly spaced jobs, the
// waves themselves Poisson at traceBurstSize*traceMeanInterval, each wave
// demanding several times the cluster's capacity. That is what bounds most
// waits to a few multiples of the run time rather than letting the queue
// drift, and it puts more than 20% of jobs at a wait of at least 4x.
const (
	TraceCapacity      = 100 // cluster containers
	traceJobs          = 2000
	traceMeanInterval  = 45.0 // mean inter-arrival time, seconds
	traceMeanDuration  = 60.0 // mean job duration, seconds (log-normal)
	traceSigmaDuration = 1.0  // log-normal sigma
	traceMaxGang       = 50   // job container demand uniform in [1, traceMaxGang]
	traceBurstSize     = 22
)

// GenerateTrace draws the Figure 1 job trace, for a Simulator of
// TraceCapacity containers.
func GenerateTrace(rng *rand.Rand) []Job {
	jobs := make([]Job, traceJobs)
	now := 0.0
	inBurst := 0
	// Log-normal duration with the requested mean: mean of LN(mu,s) is
	// exp(mu + s^2/2), so mu = ln(mean) - s^2/2.
	mu := math.Log(traceMeanDuration) - traceSigmaDuration*traceSigmaDuration/2
	drawDur := func() float64 { return math.Exp(mu + traceSigmaDuration*rng.NormFloat64()) }
	waveDur := drawDur()
	for i := range jobs {
		if inBurst == 0 {
			// Next wave: the gap carries the whole wave's worth of
			// inter-arrival time, and the wave shares one duration — a
			// scheduled pipeline's jobs are near-identical.
			now += rng.ExpFloat64() * traceMeanInterval * traceBurstSize
			inBurst = traceBurstSize
			waveDur = drawDur()
		}
		now += rng.ExpFloat64() // tight spacing within the wave
		inBurst--
		jobs[i] = Job{
			ID:         i,
			Arrival:    now,
			Containers: 1 + rng.Intn(traceMaxGang),
			Duration:   waveDur,
		}
	}
	return jobs
}

// RatioCDF returns the empirical CDF of queue-time/run-time ratios as
// (fraction of jobs, ratio) points, which is exactly the paper's Figure 1
// series. The points are sorted by ratio.
func RatioCDF(results []JobResult) (fractions, ratios []float64) {
	rs := make([]float64, len(results))
	for i, r := range results {
		rs[i] = r.Ratio()
	}
	sort.Float64s(rs)
	fractions = make([]float64, len(rs))
	for i := range rs {
		fractions[i] = float64(i+1) / float64(len(rs))
	}
	return fractions, rs
}

// FractionAtLeast returns the fraction of jobs whose queue/run ratio is at
// least x.
func FractionAtLeast(results []JobResult, x float64) float64 {
	if len(results) == 0 {
		return 0
	}
	n := 0
	for _, r := range results {
		if r.Ratio() >= x {
			n++
		}
	}
	return float64(n) / float64(len(results))
}
