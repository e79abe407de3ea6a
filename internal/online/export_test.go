package online

import (
	"testing"

	"sdem/internal/power"
	"sdem/internal/task"
)

// Workload is one equivalence case, exported for the external pin test
// (which imports packages that import online).
type Workload struct {
	Name  string
	Tasks task.Set
	Sys   power.System
	Opts  Options
}

// EquivalenceWorkloads exports the equivalence grid.
func EquivalenceWorkloads(t *testing.T) []Workload {
	var out []Workload
	for _, c := range equivalenceWorkloads(t) {
		out = append(out, Workload{Name: c.name, Tasks: c.tasks, Sys: c.sys, Opts: c.opts})
	}
	return out
}
