// Package cloud holds the one admission engine (Arbiter) and the
// priced-capacity layer it runs on: heterogeneous instance classes with
// distinct container sizes and $/hr prices, preemptible spot capacity with
// seeded interruption processes, and an autoscaler. Pool prices a
// cluster.Pool that holds every class's occupancy under one token order:
// it adds the class definitions, a provisioning bill on the virtual clock
// and scale-up orders; the engine adds recovery policies for revoked
// work. The shared cluster of internal/arbiter is the engine on a
// one-class, unpriced, fault-free pool.
//
// Everything runs on virtual time with no wall-clock reads (enforced by
// the raqolint `clock` rule), and every random draw flows from an
// explicitly derived seed, so a given arrival stream and fault
// configuration produce bit-identical outcomes across runs.
package cloud

import (
	"fmt"

	"raqo/internal/units"
)

// Tier is the procurement tier of an instance class.
type Tier int

// Procurement tiers.
const (
	// OnDemand capacity is never revoked.
	OnDemand Tier = iota
	// Spot capacity is discounted but preemptible: allocations on it may
	// be revoked mid-run by the interruption process.
	Spot
)

// String names the tier.
func (t Tier) String() string {
	switch t {
	case OnDemand:
		return "ondemand"
	case Spot:
		return "spot"
	}
	return fmt.Sprintf("Tier(%d)", int(t))
}

// InstanceClass describes one named container class offered by the
// market: a container size, a procurement tier, a price per provisioned
// container-hour, and the class's initial and autoscaling bounds.
type InstanceClass struct {
	Name string
	Tier Tier
	// ContainerGB is the memory of one container of this class; the
	// optimizer sees it as a cap on the memory axis of the conditions.
	ContainerGB float64
	// Count is the initially provisioned container count.
	Count int
	// MinCount and MaxCount bound the autoscaler. MaxCount <= 0 marks the
	// class fixed at Count; MinCount <= 0 means 1.
	MinCount int
	MaxCount int
	// Price is charged per provisioned container-hour on the virtual
	// clock, allocated or idle — idle capacity costs money, which is
	// exactly what makes autoscaling pay.
	Price units.USDPerHour
}

// Market is an ordered set of instance classes. The order is the
// deterministic iteration order everywhere; admission preference is
// derived from it (see Arbiter) but never re-orders it.
type Market struct {
	Classes []InstanceClass
}

// Validate checks the market invariants.
func (m Market) Validate() error {
	if len(m.Classes) == 0 {
		return fmt.Errorf("cloud: market has no instance classes")
	}
	seen := make(map[string]bool, len(m.Classes))
	for _, c := range m.Classes {
		if c.Name == "" {
			return fmt.Errorf("cloud: instance class with empty name")
		}
		if seen[c.Name] {
			return fmt.Errorf("cloud: duplicate instance class %q", c.Name)
		}
		seen[c.Name] = true
		if c.ContainerGB <= 0 {
			return fmt.Errorf("cloud: class %s: container size %g <= 0", c.Name, c.ContainerGB)
		}
		if c.Count < 1 {
			return fmt.Errorf("cloud: class %s: count %d < 1", c.Name, c.Count)
		}
		if c.Price < 0 {
			return fmt.Errorf("cloud: class %s: negative price %v", c.Name, c.Price)
		}
		if c.MaxCount > 0 {
			min := c.MinCount
			if min < 1 {
				min = 1
			}
			if c.Count < min || c.Count > c.MaxCount {
				return fmt.Errorf("cloud: class %s: count %d outside autoscale bounds [%d, %d]",
					c.Name, c.Count, min, c.MaxCount)
			}
		}
	}
	return nil
}

// baseRate prices one provisioned 1GB container-hour at the default
// usage price (cost.DefaultPricing is $1e-5/GB·s): the on-demand rate is
// proportional to the container size.
const baseRatePerGBHour = 1e-5 * 3600

// OnDemandRate returns the default on-demand price for a container of
// the given size.
func OnDemandRate(containerGB float64) units.USDPerHour {
	return units.USDPerHour(baseRatePerGBHour * containerGB)
}

// SpotRate discounts the on-demand rate: discount is the fraction taken
// off (0.7 means spot costs 30% of on-demand).
func SpotRate(containerGB, discount float64) units.USDPerHour {
	if discount < 0 {
		discount = 0
	}
	if discount > 1 {
		discount = 1
	}
	return units.USDPerHour(float64(OnDemandRate(containerGB)) * (1 - discount))
}

// DefaultMarket builds the standard two-tier market: onDemand reliable
// 10GB containers at the on-demand rate and spot preemptible 10GB
// containers at the discounted rate. spot <= 0 omits the spot class.
func DefaultMarket(onDemand, spot int, spotDiscount float64) Market {
	m := Market{Classes: []InstanceClass{{
		Name:        "od-10g",
		Tier:        OnDemand,
		ContainerGB: 10,
		Count:       onDemand,
		Price:       OnDemandRate(10),
	}}}
	if spot > 0 {
		m.Classes = append(m.Classes, InstanceClass{
			Name:        "spot-10g",
			Tier:        Spot,
			ContainerGB: 10,
			Count:       spot,
			Price:       SpotRate(10, spotDiscount),
		})
	}
	return m
}
