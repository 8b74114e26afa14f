// Package dag lowers physical plan trees to the stage DAGs that dataflow
// engines like Tez and Spark execute. A stage is a set of parallel tasks
// between shuffle boundaries. Consecutive broadcast hash joins along the
// probe side collapse into a single map stage, exactly like Hive merges
// consecutive map-joins into one mapper pipeline — which is why a cascade of
// BHJs must hold all its hash tables in container memory at once (the
// Figure 5 out-of-memory behaviour below 6 GB containers).
package dag

import (
	"fmt"
	"math"

	"raqo/internal/plan"
	"raqo/internal/units"
)

// Kind classifies a stage by its dominant operator.
type Kind int

// Stage kinds.
const (
	ShuffleJoin   Kind = iota // sort-merge join across a shuffle boundary
	BroadcastJoin             // one map stage probing one or more hash tables
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case ShuffleJoin:
		return "shuffle-join"
	case BroadcastJoin:
		return "broadcast-join"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// SplitGB is the input split size determining the number of map tasks; the
// paper uses 256 MB splits.
const SplitGB = 0.25

// Stage is one schedulable vertex of the DAG.
type Stage struct {
	Kind Kind
	// Top is the plan operator whose output this stage produces; its Res
	// annotation is the stage's resource configuration.
	Top *plan.Node
	// Hashes lists the BHJ operators whose build sides this stage holds in
	// memory simultaneously (length >= 1 for BroadcastJoin stages).
	Hashes []*plan.Node
	// HashGB is the total size of all hash (build) inputs held in memory.
	HashGB float64
	// ProbeGB is the data streamed through the stage: the large side for
	// broadcast stages, both inputs for shuffle stages.
	ProbeGB float64
	// ShuffleGB is the data moved across the shuffle boundary (SMJ only).
	ShuffleGB float64
	// OutputGB is the estimated stage output.
	OutputGB float64
	// Deps indexes the stages whose output this stage consumes.
	Deps []int
}

// AutoReducers returns AutoReducers(ShuffleGB) for a shuffle join stage,
// and 0 for a stage that shuffles nothing.
func (s *Stage) AutoReducers() int {
	if s.Kind != ShuffleJoin {
		return 0
	}
	return AutoReducers(s.ShuffleGB)
}

// AutoReducers is Hive's automatic reducer count for a shuffle of
// shuffleGB, one reducer per SplitGB (256 MB) and at least one, which the
// paper reports "gave us close to optimal performance".
func AutoReducers(shuffleGB float64) int {
	return max(int(math.Ceil(shuffleGB/SplitGB)), 1)
}

// String renders one stage compactly.
func (s *Stage) String() string {
	return fmt.Sprintf("%s probe=%s hash=%s shuffle=%s out=%s",
		s.Kind,
		units.FromGB(s.ProbeGB), units.FromGB(s.HashGB),
		units.FromGB(s.ShuffleGB), units.FromGB(s.OutputGB))
}

// Build lowers a plan tree to its stage DAG in topological (execution)
// order. Plans that are a single scan produce no stages.
func Build(root *plan.Node) ([]Stage, error) {
	if root == nil {
		return nil, fmt.Errorf("dag: nil plan")
	}
	b := &builder{}
	if _, _, err := b.lower(root); err != nil {
		return nil, err
	}
	return b.stages, nil
}

type builder struct {
	stages []Stage
}

// lower returns the index of the stage producing the node's output (-1 for
// a scan leaf) and the size of that output in GB.
func (b *builder) lower(n *plan.Node) (stage int, outGB float64, err error) {
	if n.IsScan() {
		return -1, n.OutputGB(), nil
	}
	leftStage, leftGB, err := b.lower(n.Left)
	if err != nil {
		return 0, 0, err
	}
	rightStage, rightGB, err := b.lower(n.Right)
	if err != nil {
		return 0, 0, err
	}

	// Identify build (smaller) and probe (larger) sides by estimated size.
	buildStage, buildGB := leftStage, leftGB
	probeStage, probeGB := rightStage, rightGB
	if leftGB > rightGB {
		buildStage, buildGB, probeStage, probeGB = rightStage, rightGB, leftStage, leftGB
	}

	switch n.Algo {
	case plan.SMJ:
		st := Stage{
			Kind:      ShuffleJoin,
			Top:       n,
			ProbeGB:   leftGB + rightGB,
			ShuffleGB: leftGB + rightGB,
			OutputGB:  n.OutputGB(),
		}
		for _, d := range []int{leftStage, rightStage} {
			if d >= 0 {
				st.Deps = append(st.Deps, d)
			}
		}
		b.stages = append(b.stages, st)
		return len(b.stages) - 1, st.OutputGB, nil

	case plan.BHJ:
		// Merge into the probe-side stage when it is itself a broadcast
		// stage: Hive pipelines consecutive map-joins in one mapper.
		if probeStage >= 0 && b.stages[probeStage].Kind == BroadcastJoin {
			st := &b.stages[probeStage]
			st.Top = n
			st.Hashes = append(st.Hashes, n)
			st.HashGB += buildGB
			st.OutputGB = n.OutputGB()
			if buildStage >= 0 {
				st.Deps = append(st.Deps, buildStage)
			}
			return probeStage, st.OutputGB, nil
		}
		st := Stage{
			Kind:     BroadcastJoin,
			Top:      n,
			Hashes:   []*plan.Node{n},
			HashGB:   buildGB,
			ProbeGB:  probeGB,
			OutputGB: n.OutputGB(),
		}
		for _, d := range []int{buildStage, probeStage} {
			if d >= 0 {
				st.Deps = append(st.Deps, d)
			}
		}
		b.stages = append(b.stages, st)
		return len(b.stages) - 1, st.OutputGB, nil
	}
	return 0, 0, fmt.Errorf("dag: unknown join algorithm %v", n.Algo)
}
