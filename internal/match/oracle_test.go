package match

import (
	"fmt"
	"sort"
	"strings"

	"vmplants/internal/core"
	"vmplants/internal/dag"
)

// This file is the matcher as it stood before requests were compiled
// (dag.Index): every set is a map, every ancestor set a fresh graph
// walk, the request's keys and topological order re-derived per call.
// It reads the graph only through NodeIDs/Node/Predecessors/Successors
// — nothing that answers from the index — so it is an independent
// oracle for Evaluate and Best.

func oracleKey(a dag.Action) string {
	if len(a.Params) == 0 {
		return a.Op
	}
	keys := make([]string, 0, len(a.Params))
	for k := range a.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(a.Op)
	for _, k := range keys {
		b.WriteByte('|')
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(a.Params[k])
	}
	return b.String()
}

func oracleAncestors(g *dag.Graph, id string) map[string]bool {
	seen := map[string]bool{id: true}
	stack := []string{id}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, next := range g.Predecessors(cur) {
			if !seen[next] {
				seen[next] = true
				stack = append(stack, next)
			}
		}
	}
	delete(seen, id)
	return seen
}

func oracleIsLinearExtension(g *dag.Graph, seq []string) bool {
	index := make(map[string]int, len(seq))
	for i, id := range seq {
		if _, ok := g.Node(id); !ok {
			return false
		}
		if _, dup := index[id]; dup {
			return false
		}
		index[id] = i
	}
	for _, id := range seq {
		for anc := range oracleAncestors(g, id) {
			if anc == dag.StartID {
				continue
			}
			if j, ok := index[anc]; ok && j > index[id] {
				return false
			}
		}
	}
	return true
}

func oracleTopoSort(g *dag.Graph) ([]string, error) {
	order := g.NodeIDs()
	indeg := make(map[string]int, len(order))
	pos := make(map[string]int, len(order))
	for i, id := range order {
		indeg[id] = len(g.Predecessors(id))
		pos[id] = i
	}
	var ready []string
	for _, id := range order {
		if indeg[id] == 0 {
			ready = append(ready, id)
		}
	}
	var out []string
	for len(ready) > 0 {
		best := 0
		for i := 1; i < len(ready); i++ {
			if pos[ready[i]] < pos[ready[best]] {
				best = i
			}
		}
		id := ready[best]
		ready = append(ready[:best], ready[best+1:]...)
		out = append(out, id)
		for _, next := range g.Successors(id) {
			indeg[next]--
			if indeg[next] == 0 {
				ready = append(ready, next)
			}
		}
	}
	if len(out) != len(order) {
		return nil, fmt.Errorf("dag: cycle detected")
	}
	return out, nil
}

func oracleEvaluate(g *dag.Graph, performed []dag.Action) Result {
	byKey := make(map[string][]string)
	for _, id := range g.ActionIDs() {
		n, _ := g.Node(id)
		k := oracleKey(n.Action)
		byKey[k] = append(byKey[k], id)
	}

	matched := make([]string, 0, len(performed))
	matchedSet := make(map[string]bool, len(performed))
	for i, a := range performed {
		k := oracleKey(a)
		ids := byKey[k]
		if len(ids) == 0 {
			return Result{
				Failed: TestSubset,
				Reason: fmt.Sprintf("image operation %d (%s) is not required by the request", i, a.Op),
			}
		}
		pick := 0
		for j, id := range ids {
			ready := true
			for anc := range oracleAncestors(g, id) {
				if anc != dag.StartID && !matchedSet[anc] {
					ready = false
					break
				}
			}
			if ready {
				pick = j
				break
			}
		}
		id := ids[pick]
		rest := make([]string, 0, len(ids)-1)
		rest = append(rest, ids[:pick]...)
		byKey[k] = append(rest, ids[pick+1:]...)
		matched = append(matched, id)
		matchedSet[id] = true
	}

	for _, id := range matched {
		for anc := range oracleAncestors(g, id) {
			if anc == dag.StartID {
				continue
			}
			if !matchedSet[anc] {
				return Result{
					Failed: TestPrefix,
					Reason: fmt.Sprintf("image has %s but not its prerequisite %s", id, anc),
				}
			}
		}
	}

	if !oracleIsLinearExtension(g, matched) {
		return Result{
			Failed: TestPartialOrder,
			Reason: "image operations were performed in an order the DAG forbids",
		}
	}

	topo, err := oracleTopoSort(g)
	if err != nil {
		return Result{Failed: TestPartialOrder, Reason: "request DAG is cyclic"}
	}
	var residual []string
	for _, id := range topo {
		if id == dag.StartID || id == dag.FinishID || matchedSet[id] {
			continue
		}
		residual = append(residual, id)
	}
	return Result{OK: true, Matched: matched, Residual: residual}
}

func oracleBest(spec core.HardwareSpec, g *dag.Graph, cands []Candidate) (Ranked, []Ranked, bool) {
	var feasible []Ranked
	for _, c := range cands {
		if !c.Hardware.Satisfies(spec) {
			continue
		}
		r := oracleEvaluate(g, c.Performed)
		if !r.OK {
			continue
		}
		feasible = append(feasible, Ranked{Candidate: c, Result: r})
	}
	if len(feasible) == 0 {
		return Ranked{}, nil, false
	}
	for i := 1; i < len(feasible); i++ {
		for j := i; j > 0 && oracleBetter(feasible[j], feasible[j-1]); j-- {
			feasible[j], feasible[j-1] = feasible[j-1], feasible[j]
		}
	}
	return feasible[0], feasible, true
}

func oracleBetter(a, b Ranked) bool {
	if a.Result.Score() != b.Result.Score() {
		return a.Result.Score() > b.Result.Score()
	}
	if a.Candidate.Hardware.DiskMB != b.Candidate.Hardware.DiskMB {
		return a.Candidate.Hardware.DiskMB < b.Candidate.Hardware.DiskMB
	}
	return a.Candidate.ID < b.Candidate.ID
}
