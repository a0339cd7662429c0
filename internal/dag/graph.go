// Package dag implements the configuration directed-acyclic-graph model
// of VMPlants (paper §3.1): clients describe how a virtual machine is to
// be configured as a DAG whose nodes are configuration actions and whose
// edges impose ordering. A special START node denotes a blank machine,
// FINISH denotes the fully configured machine, and every action node has
// an implicit error node that may be overridden by a client-supplied
// error-handling policy.
//
// The DAG serves two purposes in the system: it is the specification the
// Production Process Planner executes, and it is the structure against
// which cached "golden" images are partially matched (package match).
package dag

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
)

// Reserved node identifiers.
const (
	StartID  = "START"
	FinishID = "FINISH"
)

// Target says where an action executes.
type Target int

const (
	// Guest actions run inside the virtual machine (e.g. create a user).
	Guest Target = iota
	// Host actions run on the hosting VMPlant (e.g. attach an ISO image
	// or a network interface to the VM).
	Host
)

// String returns "guest" or "host".
func (t Target) String() string {
	if t == Host {
		return "host"
	}
	return "guest"
}

// ParseTarget converts "guest"/"host" to a Target.
func ParseTarget(s string) (Target, error) {
	switch strings.ToLower(s) {
	case "guest", "":
		return Guest, nil
	case "host":
		return Host, nil
	}
	return Guest, fmt.Errorf("dag: unknown target %q", s)
}

// ErrorPolicy is a client-configurable error-handling sub-graph for one
// action node (paper §3.1: "a special error node is implicitly
// associated with each action node, and the client can also explicitly
// configure custom error-handling sub-graphs"). The implicit error node
// corresponds to the zero value: no retries, no handler, abort.
type ErrorPolicy struct {
	// Retries re-runs the failing action up to this many extra times.
	Retries int
	// Handler is a linear chain of recovery actions executed when
	// retries are exhausted.
	Handler []Action
	// Continue, when true, lets configuration proceed past the failure
	// after the handler runs; otherwise creation aborts.
	Continue bool
}

// Action describes one configuration operation: a named action from the
// action catalog with string parameters.
type Action struct {
	Op     string            // catalog operation name, e.g. "install-package"
	Target Target            // where it runs
	Params map[string]string // operation-specific parameters
}

// Key returns a canonical identity string for matching: the operation
// name plus its parameters in sorted order. Two actions with equal keys
// are considered the same operation by the partial-matching tests.
func (a Action) Key() string {
	if len(a.Params) == 0 {
		return a.Op
	}
	var buf [128]byte
	return string(a.appendKey(buf[:0]))
}

// Param returns a parameter value, or "" when absent.
func (a Action) Param(name string) string { return a.Params[name] }

// Node is one vertex of a configuration DAG.
type Node struct {
	ID      string
	Action  Action
	OnError ErrorPolicy
}

// Graph is a configuration DAG. Construct with NewGraph or Builder; a
// Graph must pass Validate before being submitted or matched.
//
// What Validate, TopoSort and the matcher derive from the structure is
// kept in one derived index (see Index), built on first use and dropped
// by AddNode and AddEdge, so a graph that is no longer being built pays
// for it once. A node's Action must not change once the node is added.
// Any number of goroutines may read a graph, the index included, as
// long as none mutates it.
type Graph struct {
	nodes map[string]*Node
	order []string            // node insertion order (determinism)
	succ  map[string][]string // edges out, in insertion order
	pred  map[string][]string // edges in, in insertion order

	idx atomic.Pointer[Index] // nil until needed; see Index
}

// NewGraph returns a graph containing only the START and FINISH markers.
func NewGraph() *Graph { return newGraph(2) }

// newGraph is NewGraph with room for nodes nodes, markers included.
func newGraph(nodes int) *Graph {
	g := &Graph{
		nodes: make(map[string]*Node, nodes),
		order: make([]string, 0, nodes),
		succ:  make(map[string][]string, nodes),
		pred:  make(map[string][]string, nodes),
	}
	g.nodes[StartID] = &Node{ID: StartID, Action: Action{Op: "start"}}
	g.nodes[FinishID] = &Node{ID: FinishID, Action: Action{Op: "finish"}}
	g.order = append(g.order, StartID, FinishID)
	return g
}

// AddNode inserts an action node. The ID must be unique and not a
// reserved marker.
func (g *Graph) AddNode(n *Node) error {
	if n.ID == "" {
		return errors.New("dag: node with empty ID")
	}
	if n.ID == StartID || n.ID == FinishID {
		return fmt.Errorf("dag: node ID %q is reserved", n.ID)
	}
	if _, ok := g.nodes[n.ID]; ok {
		return fmt.Errorf("dag: duplicate node ID %q", n.ID)
	}
	g.nodes[n.ID] = n
	g.order = append(g.order, n.ID)
	g.idx.Store(nil)
	return nil
}

// AddEdge inserts a directed ordering constraint from → to. Both nodes
// must exist; duplicate edges are rejected.
func (g *Graph) AddEdge(from, to string) error {
	if _, ok := g.nodes[from]; !ok {
		return fmt.Errorf("dag: edge from unknown node %q", from)
	}
	if _, ok := g.nodes[to]; !ok {
		return fmt.Errorf("dag: edge to unknown node %q", to)
	}
	if from == to {
		return fmt.Errorf("dag: self edge on %q", from)
	}
	for _, s := range g.succ[from] {
		if s == to {
			return fmt.Errorf("dag: duplicate edge %s→%s", from, to)
		}
	}
	g.succ[from] = append(g.succ[from], to)
	g.pred[to] = append(g.pred[to], from)
	g.idx.Store(nil)
	return nil
}

// Node returns the node with the given ID.
func (g *Graph) Node(id string) (*Node, bool) {
	n, ok := g.nodes[id]
	return n, ok
}

// Len reports the number of action nodes (START/FINISH excluded).
func (g *Graph) Len() int { return len(g.nodes) - 2 }

// NodeIDs returns all node IDs including markers, in insertion order.
func (g *Graph) NodeIDs() []string { return append([]string(nil), g.order...) }

// ActionIDs returns action node IDs (markers excluded), insertion order.
func (g *Graph) ActionIDs() []string {
	out := make([]string, 0, g.Len())
	for _, id := range g.order {
		if id != StartID && id != FinishID {
			out = append(out, id)
		}
	}
	return out
}

// Successors returns the IDs with an edge from id, in insertion order.
func (g *Graph) Successors(id string) []string {
	return append([]string(nil), g.succ[id]...)
}

// Predecessors returns the IDs with an edge to id, in insertion order.
func (g *Graph) Predecessors(id string) []string {
	return append([]string(nil), g.pred[id]...)
}

// Edges returns every edge as [from, to] pairs in deterministic order.
func (g *Graph) Edges() [][2]string {
	var out [][2]string
	for _, from := range g.order {
		for _, to := range g.succ[from] {
			out = append(out, [2]string{from, to})
		}
	}
	return out
}

// Validate checks the structural invariants the paper's model requires:
// START is the unique source, FINISH the unique sink, the graph is
// acyclic, and every action node lies on some START→FINISH path. The
// verdict is part of the index, so asking again before the next
// mutation costs nothing.
func (g *Graph) Validate() error { return g.Index().valid }

func (g *Graph) reach(from string, adj map[string][]string) map[string]bool {
	seen := map[string]bool{from: true}
	stack := []string{from}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, next := range adj[id] {
			if !seen[next] {
				seen[next] = true
				stack = append(stack, next)
			}
		}
	}
	return seen
}

// TopoSort returns every node ID in a deterministic topological order
// (Kahn's algorithm; ties broken by node insertion order, so the same
// graph always sorts the same way). It returns an error naming a node on
// a cycle if the graph is cyclic.
func (g *Graph) TopoSort() ([]string, error) {
	ix := g.Index()
	if ix.topo == nil {
		return nil, ix.cycle
	}
	out := make([]string, len(ix.topo))
	for i, p := range ix.topo {
		out[i] = ix.ids[p]
	}
	return out, nil
}

// Ancestors returns the set of node IDs from which id is reachable
// (excluding id itself).
func (g *Graph) Ancestors(id string) map[string]bool {
	seen := g.reach(id, g.pred)
	delete(seen, id)
	return seen
}

// Descendants returns the set of node IDs reachable from id (excluding
// id itself).
func (g *Graph) Descendants(id string) map[string]bool {
	seen := g.reach(id, g.succ)
	delete(seen, id)
	return seen
}

// Before reports whether the DAG orders a strictly before b (a is an
// ancestor of b).
func (g *Graph) Before(a, b string) bool {
	return g.Descendants(a)[b]
}

// IsLinearExtension reports whether seq — a sequence of action node IDs
// — is consistent with the DAG's partial order: for every pair of nodes
// both present in seq, if the DAG orders one before the other, seq lists
// them in that order. Nodes absent from the DAG make it false.
func (g *Graph) IsLinearExtension(seq []string) bool {
	index := make(map[string]int, len(seq))
	for i, id := range seq {
		if _, ok := g.nodes[id]; !ok {
			return false
		}
		if _, dup := index[id]; dup {
			return false
		}
		index[id] = i
	}
	for _, id := range seq {
		for anc := range g.Ancestors(id) {
			if anc == StartID {
				continue
			}
			if j, ok := index[anc]; ok && j > index[id] {
				return false
			}
		}
	}
	return true
}

// Clone returns a deep copy of the graph. The copy derives its own
// index.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		nodes: make(map[string]*Node, len(g.nodes)),
		order: append([]string(nil), g.order...),
		succ:  make(map[string][]string, len(g.succ)),
		pred:  make(map[string][]string, len(g.pred)),
	}
	for id, n := range g.nodes {
		cp := *n
		if n.Action.Params != nil {
			cp.Action.Params = make(map[string]string, len(n.Action.Params))
			for k, v := range n.Action.Params {
				cp.Action.Params[k] = v
			}
		}
		if n.OnError.Handler != nil {
			cp.OnError.Handler = append([]Action(nil), n.OnError.Handler...)
		}
		c.nodes[id] = &cp
	}
	for id, s := range g.succ {
		c.succ[id] = append([]string(nil), s...)
	}
	for id, p := range g.pred {
		c.pred[id] = append([]string(nil), p...)
	}
	return c
}

// String renders a compact description: a topological listing of nodes
// and edge count, for logs and debugging.
func (g *Graph) String() string {
	topo, err := g.TopoSort()
	if err != nil {
		topo = g.order
	}
	var b strings.Builder
	b.WriteString("dag(")
	for i, id := range topo {
		if i > 0 {
			b.WriteString("→")
		}
		b.WriteString(id)
	}
	fmt.Fprintf(&b, ", %d edges)", len(g.Edges()))
	return b.String()
}
