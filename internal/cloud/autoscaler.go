package cloud

import (
	"fmt"

	"raqo/internal/units"
)

// AutoscalerConfig parameterizes the budget-aware control loop that
// grows and shrinks each elastic class (MaxCount > 0) on the virtual
// clock.
type AutoscalerConfig struct {
	Enabled bool
	// IntervalSeconds is the control-loop period (default 60).
	IntervalSeconds float64
	// LagSeconds models provisioning lag: scaled-up capacity only
	// becomes allocatable this long after the decision (default 120).
	LagSeconds float64
	// GranuleSeconds is the minimum billing granularity: a scaled-down
	// container bills at least this long, rounded up to a multiple
	// (default 60).
	GranuleSeconds float64
	// HighUtilization and LowUtilization are the scale-up / scale-down
	// thresholds on per-class container utilization (defaults 0.80 and
	// 0.25).
	HighUtilization float64
	LowUtilization  float64
	// Step caps containers added or removed per class per tick; <= 0
	// derives max(1, MaxCount/8) per class.
	Step int
	// BudgetCapUSD halts scale-up once the pool's total accrued spend
	// reaches it and drives idle elastic capacity back toward MinCount;
	// 0 means uncapped.
	BudgetCapUSD units.USD
}

// withDefaults fills the zero values.
func (c AutoscalerConfig) withDefaults() AutoscalerConfig {
	if c.IntervalSeconds <= 0 {
		c.IntervalSeconds = 60
	}
	if c.LagSeconds < 0 {
		c.LagSeconds = 0
	} else if c.LagSeconds == 0 {
		c.LagSeconds = 120
	}
	if c.GranuleSeconds == 0 {
		c.GranuleSeconds = 60
	}
	if c.HighUtilization <= 0 {
		c.HighUtilization = 0.80
	}
	if c.LowUtilization <= 0 {
		c.LowUtilization = 0.25
	}
	return c
}

// Validate checks the configuration.
func (c AutoscalerConfig) Validate() error {
	d := c.withDefaults()
	if d.LowUtilization >= d.HighUtilization {
		return fmt.Errorf("cloud: autoscaler low utilization %g >= high %g",
			d.LowUtilization, d.HighUtilization)
	}
	return nil
}

// ScaleEvent records one autoscaler action.
type ScaleEvent struct {
	At    float64 `json:"at"`
	Class string  `json:"class"`
	// Delta is containers ordered (> 0, arriving after the lag) or
	// removed (< 0, effective immediately).
	Delta int `json:"delta"`
}

// Autoscaler is the control loop. It owns no goroutine: the arbiter's
// event loop calls Step at every tick of the virtual clock, which keeps
// scaling decisions deterministic.
type Autoscaler struct {
	cfg      AutoscalerConfig
	nextTick float64
	events   []ScaleEvent
}

// NewAutoscaler builds the control loop; a disabled config yields a
// no-op scaler whose NextTick never fires.
func NewAutoscaler(cfg AutoscalerConfig) (*Autoscaler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	return &Autoscaler{cfg: cfg, nextTick: cfg.IntervalSeconds}, nil
}

// NextTick returns the next control-loop firing time, if the loop runs.
func (s *Autoscaler) NextTick() (float64, bool) {
	if !s.cfg.Enabled {
		return 0, false
	}
	return s.nextTick, true
}

// Events returns every scale action taken so far, in decision order.
func (s *Autoscaler) Events() []ScaleEvent { return s.events }

// stepOf derives the per-class step cap.
func (s *Autoscaler) stepOf(def InstanceClass) int {
	if s.cfg.Step > 0 {
		return s.cfg.Step
	}
	st := def.MaxCount / 8
	if st < 1 {
		st = 1
	}
	return st
}

// Step runs one control iteration at virtual time now against the
// pool's observed state and the queue-depth signal (containers demanded
// by queued queries). It applies its decisions to the pool directly and
// returns the actions taken. Control law, per elastic class:
//
//   - over budget: never scale up; shed idle capacity toward MinCount.
//   - utilization >= high, or queued demand exceeds the free containers:
//     order up to Step more (bounded by MaxCount, arriving after the
//     provisioning lag).
//   - utilization <= low and nothing queued: release up to Step idle
//     containers (bounded by MinCount, billed up to the granule).
func (s *Autoscaler) Step(now float64, p *Pool, queuedContainers int) []ScaleEvent {
	for s.nextTick <= now {
		s.nextTick += s.cfg.IntervalSeconds
	}
	if !s.cfg.Enabled {
		return nil
	}
	overBudget := s.cfg.BudgetCapUSD > 0 && p.SpendUSD() >= s.cfg.BudgetCapUSD
	freeTotal := p.Free()
	var acted []ScaleEvent
	for i := 0; i < p.Classes(); i++ {
		def := p.Class(i)
		if def.MaxCount <= 0 {
			continue // fixed class
		}
		min := def.MinCount
		if min < 1 {
			min = 1
		}
		cap := p.CapacityOf(i)
		committed := cap + p.PendingOf(i)
		util := float64(cap-p.FreeOf(i)) / float64(committed)
		step := s.stepOf(def)
		switch {
		case overBudget:
			down := committed - min
			if down > step {
				down = step
			}
			if removed := p.ScaleDown(i, down, s.cfg.GranuleSeconds); removed > 0 {
				acted = append(acted, ScaleEvent{At: now, Class: def.Name, Delta: -removed})
			}
		case util >= s.cfg.HighUtilization || queuedContainers > freeTotal:
			up := def.MaxCount - committed
			if up > step {
				up = step
			}
			if up > 0 {
				p.ScaleUp(i, up, s.cfg.LagSeconds)
				acted = append(acted, ScaleEvent{At: now, Class: def.Name, Delta: up})
			}
		case util <= s.cfg.LowUtilization && queuedContainers == 0:
			down := committed - min
			if down > step {
				down = step
			}
			if removed := p.ScaleDown(i, down, s.cfg.GranuleSeconds); removed > 0 {
				acted = append(acted, ScaleEvent{At: now, Class: def.Name, Delta: -removed})
			}
		}
	}
	s.events = append(s.events, acted...)
	return acted
}
