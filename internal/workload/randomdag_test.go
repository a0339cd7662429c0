package workload

import (
	"fmt"
	"sort"

	"vmplants/internal/actions"
	"vmplants/internal/dag"
	"vmplants/internal/sim"
)

// RandomDAG generates a valid random configuration DAG with n package
// installs over a base OS, with random extra ordering edges — the
// generator behind the matcher's property tests. Every generated graph
// validates and passes the action catalog's checks.
func RandomDAG(rng *sim.RNG, n int) (*dag.Graph, error) {
	if n < 1 {
		n = 1
	}
	b := dag.NewBuilder()
	b.Add("os", act(actions.OpInstallOS, "distro", "redhat-8.0"))
	ids := []string{"os"}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("p%03d", i)
		// Depend on 1..3 random earlier nodes (always at least the OS
		// chain's reachability via some earlier node).
		deps := map[string]bool{}
		nDeps := 1 + rng.Intn(3)
		for j := 0; j < nDeps; j++ {
			deps[ids[rng.Intn(len(ids))]] = true
		}
		var depList []string
		for d := range deps {
			depList = append(depList, d)
		}
		sort.Strings(depList) // full determinism, independent of map order
		b.Add(id, act(actions.OpInstallPackage, "name", id), depList...)
		ids = append(ids, id)
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	if err := actions.Validate(g); err != nil {
		return nil, err
	}
	return g, nil
}

// TopoPrefixActions returns the actions of the first k nodes of a
// deterministic topological order of g — a history guaranteed to pass
// all three matching tests.
func TopoPrefixActions(g *dag.Graph, k int) ([]dag.Action, error) {
	topo, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	var out []dag.Action
	for _, id := range topo {
		if id == dag.StartID || id == dag.FinishID {
			continue
		}
		if len(out) >= k {
			break
		}
		n, _ := g.Node(id)
		out = append(out, n.Action)
	}
	return out, nil
}
