// Package cluster models the resource-manager side of RAQO: the discrete
// resource-configuration space exposed by a YARN-like cluster (container
// counts and sizes with min/max and step), tenant quotas, and a
// discrete-event simulator of a shared cluster that produces the
// queue-time/run-time traces behind the paper's Figure 1.
package cluster

import (
	"fmt"
	"math"

	"raqo/internal/plan"
)

// Conditions describes the cluster conditions the resource manager reports
// to the optimizer: the currently allocatable range of container counts and
// container sizes, and the discrete steps along both axes. The paper's
// default evaluation setup is "a cluster of 100 containers each having a
// maximum size of 10GB. Minimum allocation is 1 container of size 1GB and
// resources could be increased in discrete intervals of 1 on either axis."
type Conditions struct {
	MinContainers int
	MaxContainers int
	ContainerStep int

	MinContainerGB float64
	MaxContainerGB float64
	GBStep         float64
}

// Default returns the paper's evaluation cluster conditions (Section VII).
func Default() Conditions {
	return Conditions{
		MinContainers: 1, MaxContainers: 100, ContainerStep: 1,
		MinContainerGB: 1, MaxContainerGB: 10, GBStep: 1,
	}
}

// Validate checks that the conditions describe a non-empty discrete space
// with finite container-size bounds and step.
func (c Conditions) Validate() error {
	for _, v := range [...]float64{c.MinContainerGB, c.MaxContainerGB, c.GBStep} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("cluster: container-size range [%g,%g] step %g is not finite", c.MinContainerGB, c.MaxContainerGB, c.GBStep)
		}
	}
	if c.MinContainers < 1 || c.MaxContainers < c.MinContainers {
		return fmt.Errorf("cluster: bad container range [%d,%d]", c.MinContainers, c.MaxContainers)
	}
	if c.ContainerStep < 1 {
		return fmt.Errorf("cluster: container step %d < 1", c.ContainerStep)
	}
	if c.MinContainerGB <= 0 || c.MaxContainerGB < c.MinContainerGB {
		return fmt.Errorf("cluster: bad container-size range [%g,%g]", c.MinContainerGB, c.MaxContainerGB)
	}
	if c.GBStep <= 0 {
		return fmt.Errorf("cluster: GB step %g <= 0", c.GBStep)
	}
	return nil
}

// MinResources returns the smallest configuration — the hill climb's
// starting point ("start from the smallest resource configuration").
func (c Conditions) MinResources() plan.Resources {
	return plan.Resources{Containers: c.MinContainers, ContainerGB: c.MinContainerGB}
}

// Contains reports whether the configuration lies on the discrete grid
// within bounds.
func (c Conditions) Contains(r plan.Resources) bool {
	if r.Containers < c.MinContainers || r.Containers > c.MaxContainers {
		return false
	}
	if (r.Containers-c.MinContainers)%c.ContainerStep != 0 {
		return false
	}
	if r.ContainerGB < c.MinContainerGB-1e-9 || r.ContainerGB > c.MaxContainerGB+1e-9 {
		return false
	}
	steps := (r.ContainerGB - c.MinContainerGB) / c.GBStep
	return math.Abs(steps-math.Round(steps)) < 1e-6
}

// Clamp snaps a configuration onto the discrete grid within bounds.
func (c Conditions) Clamp(r plan.Resources) plan.Resources {
	if r.Containers < c.MinContainers {
		r.Containers = c.MinContainers
	}
	if r.Containers > c.MaxContainers {
		r.Containers = c.MaxContainers
	}
	r.Containers = c.MinContainers + ((r.Containers-c.MinContainers)/c.ContainerStep)*c.ContainerStep
	if r.ContainerGB < c.MinContainerGB {
		r.ContainerGB = c.MinContainerGB
	}
	if r.ContainerGB > c.MaxContainerGB {
		r.ContainerGB = c.MaxContainerGB
	}
	steps := math.Floor((r.ContainerGB - c.MinContainerGB) / c.GBStep)
	r.ContainerGB = c.MinContainerGB + steps*c.GBStep
	return r
}

// ContainerLevels returns the number of discrete container counts (the
// paper's r_p).
func (c Conditions) ContainerLevels() int {
	return (c.MaxContainers-c.MinContainers)/c.ContainerStep + 1
}

// SizeLevels returns the number of discrete container sizes (the paper's
// r_c).
func (c Conditions) SizeLevels() int {
	return int((c.MaxContainerGB-c.MinContainerGB)/c.GBStep+1e-9) + 1
}

// ForEach calls fn for every configuration in the space, in deterministic
// order (container count major, size minor), stopping early if fn returns
// false.
func (c Conditions) ForEach(fn func(plan.Resources) bool) {
	for nc := c.MinContainers; nc <= c.MaxContainers; nc += c.ContainerStep {
		for i := 0; i < c.SizeLevels(); i++ {
			r := plan.Resources{Containers: nc, ContainerGB: c.MinContainerGB + float64(i)*c.GBStep}
			if !fn(r) {
				return
			}
		}
	}
}

// Restrict intersects the conditions with a tenant quota (a cap on
// containers and container size), supporting the paper's constrained-
// resources use case "with multiple tenants each having their quota, we can
// pick the best plan for a given resource budget: r ⇒ p".
func (c Conditions) Restrict(maxContainers int, maxContainerGB float64) (Conditions, error) {
	out := c
	if maxContainers < out.MaxContainers {
		out.MaxContainers = maxContainers
	}
	if maxContainerGB < out.MaxContainerGB {
		out.MaxContainerGB = maxContainerGB
	}
	if err := out.Validate(); err != nil {
		return Conditions{}, fmt.Errorf("cluster: quota leaves empty resource space: %w", err)
	}
	return out, nil
}

// String renders the conditions compactly.
func (c Conditions) String() string {
	return fmt.Sprintf("containers[%d..%d/%d] x size[%g..%gGB/%g]",
		c.MinContainers, c.MaxContainers, c.ContainerStep,
		c.MinContainerGB, c.MaxContainerGB, c.GBStep)
}
