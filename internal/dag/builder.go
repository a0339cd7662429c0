package dag

import "fmt"

// Builder assembles configuration DAGs with less ceremony than raw
// AddNode/AddEdge calls: dependencies are declared inline, and nodes
// without explicit predecessors or successors are wired to START and
// FINISH automatically at Build time.
//
//	b := dag.NewBuilder()
//	b.Add("A", dag.Action{Op: "install-os", Params: ...})
//	b.Add("B", dag.Action{Op: "install-package", ...}, "A")
//	g, err := b.Build()
type Builder struct {
	g    *Graph
	errs []error
	deps map[string][]string
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{g: NewGraph(), deps: make(map[string][]string)}
}

// Add declares an action node that must run after every node in deps.
// Errors are accumulated and reported by Build.
func (b *Builder) Add(id string, a Action, deps ...string) *Builder {
	if err := b.g.AddNode(&Node{ID: id, Action: a}); err != nil {
		b.errs = append(b.errs, err)
		return b
	}
	b.deps[id] = deps
	return b
}

// AddWithPolicy is Add with an explicit error-handling policy.
func (b *Builder) AddWithPolicy(id string, a Action, pol ErrorPolicy, deps ...string) *Builder {
	if err := b.g.AddNode(&Node{ID: id, Action: a, OnError: pol}); err != nil {
		b.errs = append(b.errs, err)
		return b
	}
	b.deps[id] = deps
	return b
}

// Chain declares a linear sequence of nodes: each entry depends on the
// previous one, and the first on the given deps.
func (b *Builder) Chain(ids []string, acts []Action, deps ...string) *Builder {
	if len(ids) != len(acts) {
		b.errs = append(b.errs, fmt.Errorf("dag: Chain with %d ids and %d actions", len(ids), len(acts)))
		return b
	}
	prev := deps
	for i, id := range ids {
		b.Add(id, acts[i], prev...)
		prev = []string{id}
	}
	return b
}

// Build wires declared dependencies, connects sources to START and sinks
// to FINISH, validates, and returns the graph.
func (b *Builder) Build() (*Graph, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	// In declaration order, not b.deps' map order: the order edges are
	// added is the order Edges and the wire form list them.
	for _, id := range b.g.ActionIDs() {
		for _, d := range b.deps[id] {
			if err := b.g.AddEdge(d, id); err != nil {
				return nil, err
			}
		}
	}
	for _, id := range b.g.ActionIDs() {
		if len(b.g.pred[id]) == 0 {
			if err := b.g.AddEdge(StartID, id); err != nil {
				return nil, err
			}
		}
		if len(b.g.succ[id]) == 0 {
			if err := b.g.AddEdge(id, FinishID); err != nil {
				return nil, err
			}
		}
	}
	// Degenerate but legal: a DAG with no actions at all.
	if b.g.Len() == 0 {
		if err := b.g.AddEdge(StartID, FinishID); err != nil {
			return nil, err
		}
	}
	if err := b.g.Validate(); err != nil {
		return nil, err
	}
	return b.g, nil
}

// MustBuild is Build, panicking on error; for fixed graphs in examples
// and tests.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}
