package experiments

import (
	"fmt"

	"raqo/internal/core"
	"raqo/internal/execsim"
	"raqo/internal/plan"
)

// reducerCombo is one <#containers, #reducers> curve of Figure 9.
type reducerCombo struct {
	Containers int
	Reducers   int // 0 = engine auto rule
}

func (c reducerCombo) label() string {
	if c.Reducers == 0 {
		return fmt.Sprintf("<%d,auto>", c.Containers)
	}
	return fmt.Sprintf("<%d,%d>", c.Containers, c.Reducers)
}

// Figure9 maps the BHJ/SMJ switch-point frontier across the
// data-and-resource space for Hive and Spark: for each
// <containers, reducers> combination and container size, the largest
// smaller-relation size at which a broadcast join is still the right
// choice. The default engines' flat 10 MB threshold sits far below every
// frontier.
func Figure9() (*Report, error) {
	report := &Report{
		ID:    "fig9",
		Title: "The space of BHJ and SMJ switch points (Hive and Spark)",
	}
	const ls = 77.0
	combos := map[string][]reducerCombo{
		"hive":  {{5, 200}, {5, 1000}, {6, 1000}, {10, 1000}, {6, 80}, {10, 80}},
		"spark": {{6, 200}, {6, 1000}, {10, 200}, {10, 1000}},
	}
	for _, engine := range []execsim.Params{execsim.Hive(), execsim.Spark()} {
		tbl := Table{
			Title:   fmt.Sprintf("%s: switch point (GB) per container size", engine.Name),
			Columns: []string{"combo \\ container GB"},
		}
		sizes := []float64{3, 5, 7, 9, 11}
		for _, cs := range sizes {
			tbl.Columns = append(tbl.Columns, f1(cs))
		}
		for _, combo := range combos[engine.Name] {
			e := engine
			e.ForcedReducers = combo.Reducers
			row := []string{combo.label()}
			for _, cs := range sizes {
				r := plan.Resources{Containers: combo.Containers, ContainerGB: cs}
				row = append(row, f2(e.SwitchPoint(ls, r, 0.01, 12)))
			}
			tbl.AddRow(row...)
		}
		// The default rule is a flat 10 MB threshold regardless of
		// resources.
		defRow := []string{"default rule"}
		for range sizes {
			defRow = append(defRow, f2(10.0/1024))
		}
		tbl.AddRow(defRow...)
		report.Tables = append(report.Tables, tbl)
	}
	report.Notes = append(report.Notes,
		"below the frontier choose BHJ, above choose SMJ",
		"paper: frontiers shift across the resource space; the engines' flat default threshold is way off; Spark's frontier sits far lower than Hive's",
	)
	return report, nil
}

// Figure10 renders the default decision trees both engines ship with: a
// single split on the data size at 10 MB.
func Figure10() (*Report, error) {
	report := &Report{
		ID:    "fig10",
		Title: "Default decision trees for join operator implementation",
	}
	for _, engine := range []string{"hive", "spark"} {
		rule := core.NewDefaultRule(engine)
		report.Notes = append(report.Notes, fmt.Sprintf("%s default tree:\n%s",
			engine, rule.Tree().Render(core.RuleFeatureNames, core.RuleClassNames)))
	}
	return report, nil
}

// Figure11 trains the RAQO decision trees on the switch-point grid of
// Figure 9 and renders them: unlike the defaults, they branch on container
// size and container count as well as data size.
func Figure11() (*Report, error) {
	report := &Report{
		ID:    "fig11",
		Title: "RAQO decision trees for join operator implementation",
	}
	summary := Table{
		Title:   "tree statistics",
		Columns: []string{"engine", "training samples", "accuracy", "depth", "leaves"},
	}
	for _, engine := range []execsim.Params{execsim.Hive(), execsim.Spark()} {
		rule, err := core.TrainTreeRule(engine)
		if err != nil {
			return nil, err
		}
		summary.AddRow(engine.Name,
			fmt.Sprintf("%d", rule.NumLabels),
			f3(rule.TrainAcc),
			fmt.Sprintf("%d", rule.Tree.Depth()),
			fmt.Sprintf("%d", rule.Tree.Leaves()))
		report.Notes = append(report.Notes, fmt.Sprintf("%s RAQO tree:\n%s", engine.Name, rule.Render()))
	}
	report.Tables = append(report.Tables, summary)
	report.Notes = append(report.Notes,
		"paper: RAQO trees branch on data size, container size and container count; max path length 6 (Hive) / 7 (Spark)")
	return report, nil
}
