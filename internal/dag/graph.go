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
	"hash/maphash"
	"maps"
	"math/bits"
	"slices"
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
// A graph is positions: its nodes in insertion order (START at
// StartPos, FINISH at FinishPos), a hash table from action-node ID to
// position, and its edges as position pairs in insertion order, each
// chained to the next edge out of its tail and into its head.
//
// What Validate, TopoSort and the matcher derive from the structure is
// kept in one derived index (see Index), built on first use and dropped
// by AddNode and AddEdge, so a graph that is no longer being built pays
// for it once. A node's Action must not change once the node is added.
// Any number of goroutines may read a graph, the index included, as
// long as none mutates it.
type Graph struct {
	nodes []Node  // by position
	slots idTable // action node positions, hashed by ID
	edges []int32 // edgeWords per edge, edges numbered from 1 in insertion order
	heads []int32 // chainWords per position: where its edge chains start and end

	idx atomic.Pointer[Index] // nil until needed; see Index
}

// The words of one edge in Graph.edges, and of one position in
// Graph.heads. Edge 0 is none: it ends a chain, and zeroed heads hold no edges.
const (
	tail, head, nextOut, nextIn, edgeWords         = 0, 1, 2, 3, 4
	firstOut, lastOut, firstIn, lastIn, chainWords = 0, 1, 2, 3, 4
)

// markers are the nodes at StartPos and FinishPos of every graph.
var markers = [2]Node{{ID: StartID, Action: Action{Op: "start"}}, {ID: FinishID, Action: Action{Op: "finish"}}}

// NewGraph returns a graph containing only the START and FINISH markers,
// with room for the paper's graphs (around ten nodes) before it grows.
func NewGraph() *Graph {
	const room = 16 // nodes, markers included, and twice as many edges
	g := &Graph{nodes: append(make([]Node, 0, room), markers[:]...)}
	slots, edges, heads := carve(tableSize(room-2), 2*edgeWords*room, chainWords*room)
	g.slots, g.edges, g.heads = slots, edges[:0], heads[:2*chainWords]
	return g
}

// carve cuts three zeroed slices of the given lengths from one array,
// each one's capacity ending where the next begins.
func carve(a, b, c int) (x, y, z []int32) {
	all := make([]int32, a+b+c)
	return all[:a:a], all[a : a+b : a+b], all[a+b:]
}

// AddNode inserts a copy of an action node. The ID must be unique and
// not a reserved marker.
func (g *Graph) AddNode(n *Node) error {
	if err := idError(n.ID, g.pos(n.ID) >= 0); err != nil {
		return err
	}
	g.nodes = append(g.nodes, *n)
	g.heads = append(g.heads, 0, 0, 0, 0)
	g.slots = g.slots.add(int32(len(g.nodes)-1), g.Len(), func(p int32) uint64 { return maphash.String(idSeed, g.nodes[p].ID) })
	g.idx.Store(nil)
	return nil
}

// idError is why a graph refuses a new node's ID, or nil; dup reports
// that the graph holds a node of that ID already.
func idError(id string, dup bool) error {
	switch {
	case id == "":
		return errors.New("dag: node with empty ID")
	case id == StartID || id == FinishID:
		return fmt.Errorf("dag: node ID %q is reserved", id)
	case dup:
		return fmt.Errorf("dag: duplicate node ID %q", id)
	}
	return nil
}

// pos returns the position of the node with the given ID, or -1.
func (g *Graph) pos(id string) int32 {
	switch id {
	case StartID:
		return StartPos
	case FinishID:
		return FinishPos
	}
	return g.slots.find(maphash.String(idSeed, id), func(p int32) bool { return g.nodes[p].ID == id })
}

// AddEdge inserts a directed ordering constraint from → to. Both nodes
// must exist; duplicate edges are rejected.
func (g *Graph) AddEdge(from, to string) error {
	f, t := g.pos(from), g.pos(to)
	switch {
	case f < 0:
		return errUnknownEnd("from", from)
	case t < 0:
		return errUnknownEnd("to", to)
	case f == t:
		return errSelfEdge(from)
	}
	for e := g.first(f, firstOut); e != 0; e = g.word(e, nextOut) {
		if g.word(e, head) == t {
			return errDuplicateEdge(from, to)
		}
	}
	g.link(f, t)
	g.idx.Store(nil)
	return nil
}

// link appends the edge f→t and chains it behind the last edge out of
// f and the last edge into t.
func (g *Graph) link(f, t int32) {
	g.edges = append(g.edges, f, t, 0, 0)
	e := int32(len(g.edges) / edgeWords)
	g.chainOn(f, firstOut, lastOut, nextOut, e)
	g.chainOn(t, firstIn, lastIn, nextIn, e)
}

// chainOn appends edge e to one of p's chains: the one whose ends are
// p's heads words first and last, and whose edges link through word next.
func (g *Graph) chainOn(p, first, last, next, e int32) {
	if l := g.heads[p*chainWords+last]; l != 0 {
		g.edges[(l-1)*edgeWords+next] = e
	} else {
		g.heads[p*chainWords+first] = e
	}
	g.heads[p*chainWords+last] = e
}

// word returns one word of edge e, and first the first edge of one of
// p's chains (firstOut or firstIn), or 0, as for the position -1 of no node.
func (g *Graph) word(e, w int32) int32 { return g.edges[(e-1)*edgeWords+w] }
func (g *Graph) first(p, chain int32) int32 {
	if p < 0 {
		return 0
	}
	return g.heads[p*chainWords+chain]
}

// The reasons AddEdge and DecodeXML refuse an edge.

func errUnknownEnd(dir, id string) error { return fmt.Errorf("dag: edge %s unknown node %q", dir, id) }
func errSelfEdge(id string) error        { return fmt.Errorf("dag: self edge on %q", id) }
func errDuplicateEdge(from, to string) error {
	return fmt.Errorf("dag: duplicate edge %s→%s", from, to)
}

// Node returns the node with the given ID, in the graph: the pointer
// is valid until the next AddNode.
func (g *Graph) Node(id string) (*Node, bool) {
	if p := g.pos(id); p >= 0 {
		return &g.nodes[p], true
	}
	return nil, false
}

// Len reports the number of action nodes (START/FINISH excluded).
func (g *Graph) Len() int { return len(g.nodes) - 2 }

// NodeIDs returns all node IDs including markers, in insertion order.
func (g *Graph) NodeIDs() []string { return ids(g.nodes) }

// ActionIDs returns action node IDs (markers excluded), insertion order.
func (g *Graph) ActionIDs() []string { return ids(g.nodes[2:]) }

func ids(nodes []Node) []string {
	out := make([]string, len(nodes))
	for i := range nodes {
		out[i] = nodes[i].ID
	}
	return out
}

// Successors returns the IDs with an edge from id, in insertion order.
func (g *Graph) Successors(id string) []string {
	var out []string
	for e := g.first(g.pos(id), firstOut); e != 0; e = g.word(e, nextOut) {
		out = append(out, g.nodes[g.word(e, head)].ID)
	}
	return out
}

// Predecessors returns the IDs with an edge to id, in insertion order.
func (g *Graph) Predecessors(id string) []string {
	var out []string
	for e := g.first(g.pos(id), firstIn); e != 0; e = g.word(e, nextIn) {
		out = append(out, g.nodes[g.word(e, tail)].ID)
	}
	return out
}

// Edges returns every edge as [from, to], by tail, each in insertion order.
func (g *Graph) Edges() [][2]string {
	var out [][2]string
	for p := range int32(len(g.nodes)) {
		for e := g.first(p, firstOut); e != 0; e = g.word(e, nextOut) {
			out = append(out, [2]string{g.nodes[p].ID, g.nodes[g.word(e, head)].ID})
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
		out[i] = g.nodes[p].ID
	}
	return out, nil
}

// Ancestors returns the set of node IDs from which id is reachable
// (excluding id itself).
func (g *Graph) Ancestors(id string) map[string]bool {
	out := map[string]bool{}
	for _, n := range g.nodes {
		if g.Before(n.ID, id) {
			out[n.ID] = true
		}
	}
	return out
}

// Descendants returns the set of node IDs reachable from id (excluding
// id itself).
func (g *Graph) Descendants(id string) map[string]bool {
	out := map[string]bool{}
	for _, n := range g.nodes {
		if g.Before(id, n.ID) {
			out[n.ID] = true
		}
	}
	return out
}

// Before reports whether the DAG orders a strictly before b (a is an
// ancestor of b).
func (g *Graph) Before(a, b string) bool {
	p, q := g.pos(a), g.pos(b)
	return p >= 0 && q >= 0 && g.Index().Ancestors(q)[p/64]&(1<<(p%64)) != 0
}

// IsLinearExtension reports whether seq — a sequence of action node IDs
// — is consistent with the DAG's partial order: for every pair of nodes
// both present in seq, if the DAG orders one before the other, seq lists
// them in that order. Nodes absent from the DAG make it false.
func (g *Graph) IsLinearExtension(seq []string) bool {
	for i, a := range seq {
		if g.pos(a) < 0 || slices.Contains(seq[:i], a) {
			return false
		}
		for _, b := range seq[:i] {
			if a != StartID && g.Before(a, b) {
				return false
			}
		}
	}
	return true
}

// Clone returns a deep copy of the graph. The copy derives its own
// index.
func (g *Graph) Clone() *Graph {
	c := &Graph{nodes: slices.Clone(g.nodes), slots: slices.Clone(g.slots), edges: slices.Clone(g.edges), heads: slices.Clone(g.heads)}
	for i := range c.nodes {
		n := &c.nodes[i]
		if n.Action.Params != nil {
			n.Action.Params = maps.Clone(n.Action.Params)
		}
		if n.OnError.Handler != nil {
			n.OnError.Handler = append([]Action(nil), n.OnError.Handler...)
		}
	}
	return c
}

// String renders a compact description: a topological listing of nodes
// and edge count, for logs and debugging.
func (g *Graph) String() string {
	topo, err := g.TopoSort()
	if err != nil {
		topo = g.NodeIDs()
	}
	return fmt.Sprintf("dag(%s, %d edges)", strings.Join(topo, "→"), len(g.edges)/edgeWords)
}

// idSeed keys every ID and action-key hash of the package.
var idSeed = maphash.MakeSeed()

// An idTable is an open-addressed hash set of action-node positions (so
// 0 marks an empty slot), a power of two long and at most half full.
type idTable []int32

// tableSize is the length of an idTable with room for n positions: the
// least power of two of at least 2n and 8.
func tableSize(n int) int { return max(8, 1<<bits.Len(uint(max(2*n-1, 1)))) }

// find returns the position, hashed to h, that is accepts, or -1.
func (t idTable) find(h uint64, is func(p int32) bool) int32 {
	if len(t) > 0 {
		if p := t[t.slot(h, is)]; p != 0 {
			return p
		}
	}
	return -1
}

// slot returns the index of the first slot from h's that is empty or
// holds a position is accepts.
func (t idTable) slot(h uint64, is func(p int32) bool) int {
	mask := len(t) - 1
	i := int(h) & mask
	for t[i] != 0 && !is(t[i]) {
		i = (i + 1) & mask
	}
	return i
}

// add puts position p, the nth, in t, or in a copy of t at least twice
// the size when t would be over half full; hash hashes a position's ID.
func (t idTable) add(p int32, n int, hash func(p int32) uint64) idTable {
	if 2*n > len(t) {
		bigger := make(idTable, max(2*len(t), tableSize(n)))
		for _, q := range t {
			if q != 0 {
				bigger.add(q, 0, hash)
			}
		}
		t = bigger
	}
	t[t.slot(hash(p), func(int32) bool { return false })] = p
	return t
}
