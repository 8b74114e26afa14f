package cloud

import (
	"fmt"
	"math"
	"math/rand"

	"raqo/internal/scheduler"
)

// Shape selects the arrival-rate profile of a synthetic trace.
type Shape int

// Trace shapes.
const (
	// Steady is a homogeneous Poisson stream.
	Steady Shape = iota
	// Diurnal modulates the Poisson rate sinusoidally over PeriodSeconds —
	// the day/night load curve where elastic capacity pays off.
	Diurnal
	// Bursty groups arrivals into tightly spaced waves — scheduled
	// pipelines firing together.
	Bursty
)

// String names the shape.
func (s Shape) String() string {
	switch s {
	case Steady:
		return "steady"
	case Diurnal:
		return "diurnal"
	case Bursty:
		return "bursty"
	}
	return fmt.Sprintf("Shape(%d)", int(s))
}

// Share weights one tenant or query name in a synthetic trace.
type Share struct {
	Name   string
	Weight float64
}

// diurnalAmplitude is the diurnal shape's swing: the arrival rate moves
// between 0.2 and 1.8 times its mean.
const diurnalAmplitude = 0.8

// TraceConfig parameterizes a deterministic seeded arrival stream for the
// cloud arbiter. The same config always yields the same stream; streams
// differing only in Recovery are identical except for that field, so
// policy runs compare on identical arrivals.
type TraceConfig struct {
	Seed     int64
	Arrivals int
	// MeanIntervalSeconds is the mean inter-arrival time (of the overall
	// stream, whatever the shape).
	MeanIntervalSeconds float64
	Shape               Shape
	// PeriodSeconds is the diurnal period (default 7200); the rate swings
	// by diurnalAmplitude around the mean.
	PeriodSeconds float64
	// BurstSize sizes the bursty waves (default 8).
	BurstSize int
	Tenants   []Share
	Mix       []Share
	Recovery  Recovery
}

// GenerateTrace draws the arrival stream.
func GenerateTrace(cfg TraceConfig) ([]Arrival, error) {
	if cfg.Arrivals < 1 {
		return nil, fmt.Errorf("cloud: trace needs at least one arrival")
	}
	if cfg.MeanIntervalSeconds <= 0 {
		return nil, fmt.Errorf("cloud: mean interval %g <= 0", cfg.MeanIntervalSeconds)
	}
	if len(cfg.Tenants) == 0 || len(cfg.Mix) == 0 {
		return nil, fmt.Errorf("cloud: trace needs tenants and a query mix")
	}
	tenantTotal := 0.0
	for _, t := range cfg.Tenants {
		if t.Weight < 0 {
			return nil, fmt.Errorf("cloud: negative weight for tenant %s", t.Name)
		}
		tenantTotal += t.Weight
	}
	mixTotal := 0.0
	for _, m := range cfg.Mix {
		if m.Weight < 0 {
			return nil, fmt.Errorf("cloud: negative weight for query %s", m.Name)
		}
		mixTotal += m.Weight
	}
	if tenantTotal <= 0 || mixTotal <= 0 {
		return nil, fmt.Errorf("cloud: trace weights sum to zero")
	}
	period := cfg.PeriodSeconds
	if period <= 0 {
		period = 7200
	}
	burst := cfg.BurstSize
	if burst <= 0 {
		burst = 8
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	pick := func(shares []Share, total float64) string {
		x := rng.Float64() * total
		for _, s := range shares {
			x -= s.Weight
			if x < 0 {
				return s.Name
			}
		}
		return shares[len(shares)-1].Name
	}

	out := make([]Arrival, cfg.Arrivals)
	now := 0.0
	inBurst := 0
	for i := range out {
		switch cfg.Shape {
		case Diurnal:
			// Lewis-Shedler thinning against the peak rate: candidate
			// points at rate (1+amp)/mean, accepted with probability
			// rate(t)/peak where rate(t) swings sinusoidally.
			const amp = diurnalAmplitude
			peak := (1 + amp) / cfg.MeanIntervalSeconds
			for {
				now += rng.ExpFloat64() / peak
				rate := (1 + amp*math.Sin(2*math.Pi*now/period)) / cfg.MeanIntervalSeconds
				if rng.Float64() <= rate/peak {
					break
				}
			}
		case Bursty:
			if inBurst == 0 {
				now += rng.ExpFloat64() * cfg.MeanIntervalSeconds * float64(burst)
				inBurst = burst
			}
			now += rng.ExpFloat64() // tight spacing within the wave
			inBurst--
		default:
			now += rng.ExpFloat64() * cfg.MeanIntervalSeconds
		}
		out[i] = Arrival{
			Tenant:   pick(cfg.Tenants, tenantTotal),
			Query:    pick(cfg.Mix, mixTotal),
			Time:     now,
			Policy:   scheduler.Reoptimize,
			Recovery: cfg.Recovery,
		}
	}
	return out, nil
}
