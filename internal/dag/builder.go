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
	g       *Graph
	errs    []error
	pending [][2]string // the edges declared dependencies ask for, in declaration order
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{g: NewGraph(), pending: make([][2]string, 0, 16)}
}

// Add declares an action node that must run after every node in deps.
// Errors are accumulated and reported by Build.
func (b *Builder) Add(id string, a Action, deps ...string) *Builder {
	return b.AddWithPolicy(id, a, ErrorPolicy{}, deps...)
}

// AddWithPolicy is Add with an explicit error-handling policy.
func (b *Builder) AddWithPolicy(id string, a Action, pol ErrorPolicy, deps ...string) *Builder {
	if err := b.g.AddNode(&Node{ID: id, Action: a, OnError: pol}); err != nil {
		b.errs = append(b.errs, err)
		return b
	}
	for _, d := range deps {
		b.pending = append(b.pending, [2]string{d, id})
	}
	return b
}

// Chain declares a linear sequence of nodes: each entry depends on the
// previous one, and the first on the given deps.
func (b *Builder) Chain(ids []string, acts []Action, deps ...string) *Builder {
	if len(ids) != len(acts) {
		b.errs = append(b.errs, fmt.Errorf("dag: Chain with %d ids and %d actions", len(ids), len(acts)))
		return b
	}
	for i, id := range ids {
		if i > 0 {
			deps = ids[i-1 : i]
		}
		b.Add(id, acts[i], deps...)
	}
	return b
}

// Build wires declared dependencies, connects sources to START and sinks
// to FINISH, validates, and returns the graph.
func (b *Builder) Build() (*Graph, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	g := b.g
	for _, e := range b.pending { // in declaration order, the order Edges and the wire form keep
		if err := g.AddEdge(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	for p := int32(2); p < int32(len(g.nodes)); p++ {
		if g.first(p, firstIn) == 0 {
			g.link(StartPos, p)
		}
		if g.first(p, firstOut) == 0 {
			g.link(p, FinishPos)
		}
	}
	// Degenerate but legal: a DAG with no actions at all.
	if g.Len() == 0 {
		g.link(StartPos, FinishPos)
	}
	g.idx.Store(nil)
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
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
