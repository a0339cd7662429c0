package dag

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"vmplants/internal/xmlwire"
)

// oracleGraph is Graph as it stood before it was positional: nodes in a
// map by ID, their insertion order beside it, and successor and
// predecessor lists in maps by ID. Every query walks the maps; nothing
// is derived once. FuzzGraphOps and TestIndexMatchesGraphWalks hold
// Graph to it.
type oracleGraph struct {
	nodes map[string]*Node
	order []string
	succ  map[string][]string
	pred  map[string][]string
}

func newOracle() *oracleGraph {
	o := &oracleGraph{
		nodes: map[string]*Node{
			StartID:  {ID: StartID, Action: Action{Op: "start"}},
			FinishID: {ID: FinishID, Action: Action{Op: "finish"}},
		},
		order: []string{StartID, FinishID},
		succ:  map[string][]string{},
		pred:  map[string][]string{},
	}
	return o
}

func (o *oracleGraph) AddNode(n *Node) error {
	_, dup := o.nodes[n.ID]
	if err := idError(n.ID, dup); err != nil {
		return err
	}
	cp := *n
	o.nodes[n.ID] = &cp
	o.order = append(o.order, n.ID)
	return nil
}

func (o *oracleGraph) AddEdge(from, to string) error {
	if _, ok := o.nodes[from]; !ok {
		return errUnknownEnd("from", from)
	}
	if _, ok := o.nodes[to]; !ok {
		return errUnknownEnd("to", to)
	}
	if from == to {
		return errSelfEdge(from)
	}
	if slices.Contains(o.succ[from], to) {
		return errDuplicateEdge(from, to)
	}
	o.succ[from] = append(o.succ[from], to)
	o.pred[to] = append(o.pred[to], from)
	return nil
}

func (o *oracleGraph) Successors(id string) []string {
	return append([]string(nil), o.succ[id]...)
}

func (o *oracleGraph) Predecessors(id string) []string {
	return append([]string(nil), o.pred[id]...)
}

func (o *oracleGraph) Edges() [][2]string {
	var out [][2]string
	for _, from := range o.order {
		for _, to := range o.succ[from] {
			out = append(out, [2]string{from, to})
		}
	}
	return out
}

// Validate: degree checks, a map-based Kahn sort, then two
// reachability walks.
func (o *oracleGraph) Validate() error {
	for _, id := range o.order {
		switch {
		case id == StartID:
			if len(o.pred[id]) != 0 {
				return errors.New("dag: START has incoming edges")
			}
		case id == FinishID:
			if len(o.succ[id]) != 0 {
				return errors.New("dag: FINISH has outgoing edges")
			}
		case len(o.pred[id]) == 0:
			return fmt.Errorf("dag: node %q unreachable (no incoming edges; connect it to START)", id)
		case len(o.succ[id]) == 0:
			return fmt.Errorf("dag: node %q is a dead end (no outgoing edges; connect it to FINISH)", id)
		}
	}
	if _, err := o.TopoSort(); err != nil {
		return err
	}
	fwd := o.reach(StartID, o.succ)
	back := o.reach(FinishID, o.pred)
	for _, id := range o.order {
		if !fwd[id] {
			return fmt.Errorf("dag: node %q not reachable from START", id)
		}
		if !back[id] {
			return fmt.Errorf("dag: FINISH not reachable from node %q", id)
		}
	}
	return nil
}

func (o *oracleGraph) TopoSort() ([]string, error) {
	indeg := make(map[string]int, len(o.nodes))
	for id := range o.nodes {
		indeg[id] = len(o.pred[id])
	}
	pos := make(map[string]int, len(o.order))
	for i, id := range o.order {
		pos[id] = i
	}
	var ready []string
	for _, id := range o.order {
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
		for _, next := range o.succ[id] {
			indeg[next]--
			if indeg[next] == 0 {
				ready = append(ready, next)
			}
		}
	}
	if len(out) != len(o.nodes) {
		for _, id := range o.order {
			if indeg[id] > 0 {
				return nil, fmt.Errorf("dag: cycle involving node %q", id)
			}
		}
		return nil, errors.New("dag: cycle detected")
	}
	return out, nil
}

func (o *oracleGraph) reach(from string, adj map[string][]string) map[string]bool {
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

func (o *oracleGraph) Ancestors(id string) map[string]bool {
	seen := o.reach(id, o.pred)
	delete(seen, id)
	return seen
}

func (o *oracleGraph) Descendants(id string) map[string]bool {
	seen := o.reach(id, o.succ)
	delete(seen, id)
	return seen
}

func (o *oracleGraph) AppendXML(dst []byte) []byte {
	dst = append(dst, "<dag>"...)
	for _, id := range o.order[2:] {
		n := o.nodes[id]
		dst = append(dst, `<node id="`...)
		dst = xmlwire.AppendEscaped(dst, n.ID)
		dst = append(dst, '"')
		dst = appendAction(dst, n.Action)
		if pol := n.OnError; pol.Retries != 0 || pol.Continue || len(pol.Handler) > 0 {
			dst = append(dst, `<onerror retries="`...)
			dst = strconv.AppendInt(dst, int64(pol.Retries), 10)
			dst = append(dst, `" continue="`...)
			dst = strconv.AppendBool(dst, pol.Continue)
			dst = append(dst, `">`...)
			for _, h := range pol.Handler {
				dst = append(dst, "<handler"...)
				dst = appendAction(dst, h)
				dst = append(dst, "</handler>"...)
			}
			dst = append(dst, "</onerror>"...)
		}
		dst = append(dst, "</node>"...)
	}
	for _, e := range o.Edges() {
		dst = append(dst, `<edge from="`...)
		dst = xmlwire.AppendEscaped(dst, e[0])
		dst = append(dst, `" to="`...)
		dst = xmlwire.AppendEscaped(dst, e[1])
		dst = append(dst, `"></edge>`...)
	}
	return append(dst, "</dag>"...)
}

// twin is a Graph and its oracle, built by the same calls.
type twin struct {
	g *Graph
	o *oracleGraph
}

func newTwin() twin { return twin{NewGraph(), newOracle()} }

// addNode and addEdge make the call on both and report the error,
// failing the test when the two disagree.
func (tw twin) addNode(t testing.TB, n Node) error {
	t.Helper()
	got, want := tw.g.AddNode(&n), tw.o.AddNode(&n)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("AddNode(%q) = %v, oracle %v", n.ID, got, want)
	}
	return got
}

func (tw twin) addEdge(t testing.TB, from, to string) error {
	t.Helper()
	got, want := tw.g.AddEdge(from, to), tw.o.AddEdge(from, to)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("AddEdge(%q, %q) = %v, oracle %v", from, to, got, want)
	}
	return got
}

// compare fails the test on the first query the two answer differently,
// asking about every node of the oracle and about names absent from it.
func (tw twin) compare(t testing.TB, absent ...string) {
	t.Helper()
	g, o := tw.g, tw.o
	same := func(what string, got, want any) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s = %v, oracle %v\nedges %v", what, got, want, o.Edges())
		}
	}
	same("NodeIDs", g.NodeIDs(), o.order)
	same("Len", g.Len(), len(o.order)-2)
	same("Edges", g.Edges(), o.Edges())
	same("Validate", fmt.Sprint(g.Validate()), fmt.Sprint(o.Validate()))
	gt, gerr := g.TopoSort()
	ot, oerr := o.TopoSort()
	same("TopoSort", fmt.Sprint(gt, gerr), fmt.Sprint(ot, oerr))
	same("AppendXML", string(g.AppendXML(nil)), string(o.AppendXML(nil)))
	for _, id := range append(slices.Clone(o.order), absent...) {
		same("Successors("+id+")", g.Successors(id), o.Successors(id))
		same("Predecessors("+id+")", g.Predecessors(id), o.Predecessors(id))
		same("Ancestors("+id+")", g.Ancestors(id), o.Ancestors(id))
		same("Descendants("+id+")", g.Descendants(id), o.Descendants(id))
		n, ok := g.Node(id)
		on, ook := o.nodes[id]
		if ok != ook || ok && !reflect.DeepEqual(*n, *on) {
			t.Fatalf("Node(%q) = %+v, %v, oracle %+v, %v", id, n, ok, on, ook)
		}
	}
}

// FuzzGraphOps drives a Graph and its oracle with one script of
// AddNode and AddEdge calls, valid and invalid alike, comparing every
// error, and every query after each byte that asks for it and at the
// end. A script byte is an operation in its low two bits and the
// operands in the rest.
func FuzzGraphOps(f *testing.F) {
	f.Add([]byte{0x00, 0x04, 0x08, 0x0d, 0x31, 0x45, 0x03, 0x19})
	f.Add([]byte{0x00, 0x04, 0x01, 0x11, 0x13, 0x05, 0x85, 0x03, 0x31, 0x03})
	f.Add([]byte("\x00\x04\x08\x0c\x10\x14\x18\x1c\x01\x21\x41\x61\x81\xa1\xc1\xe1\x03\x02\x06\x0a\x0e\x03"))
	names := []string{StartID, FinishID, "", "a", "b", `c"d`, "e\\f", "a b"}
	ops := []Action{{Op: "x"}, {Op: "y", Target: Host}, {Op: "x", Params: map[string]string{"k": "v"}}, {Op: ""}}
	f.Fuzz(func(t *testing.T, script []byte) {
		tw := newTwin()
		var ids []string // every action ID the script names
		id := func(b byte) string {
			if i := int(b); i < len(names) {
				return names[i]
			}
			return "n" + strconv.Itoa(int(b))
		}
		for i := 0; i < len(script); i++ {
			b := script[i]
			switch b & 3 {
			case 0: // AddNode: an ID from bits 2–6, an action from bit 7 and the next byte
				nid := id(b >> 2 & 31)
				act := ops[int(b>>7)*2%len(ops)]
				pol := ErrorPolicy{}
				if i+1 < len(script) {
					i++
					act = ops[int(script[i])%len(ops)]
					pol.Retries = int(script[i] >> 6)
				}
				ids = append(ids, nid)
				tw.addNode(t, Node{ID: nid, Action: act, OnError: pol})
			case 1, 2: // AddEdge between two names: bits 2–4 and 5–7
				from, to := id(b>>2&7), id(b>>5)
				if b&3 == 2 && len(ids) > 0 { // between two declared IDs
					from, to = ids[int(b>>2&7)%len(ids)], ids[int(b>>5)%len(ids)]
				}
				tw.addEdge(t, from, to)
			case 3:
				tw.compare(t)
			}
		}
		tw.compare(t, "missing", "")
	})
}
