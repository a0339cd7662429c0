package dag

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// oracleValidate is Validate as it stood before the index: degree
// checks, a map-based Kahn sort, then two reachability walks.
func oracleValidate(g *Graph) error {
	for _, id := range g.order {
		if id == StartID {
			if len(g.pred[id]) != 0 {
				return errors.New("dag: START has incoming edges")
			}
			continue
		}
		if id == FinishID {
			if len(g.succ[id]) != 0 {
				return errors.New("dag: FINISH has outgoing edges")
			}
			continue
		}
		if len(g.pred[id]) == 0 {
			return fmt.Errorf("dag: node %q unreachable (no incoming edges; connect it to START)", id)
		}
		if len(g.succ[id]) == 0 {
			return fmt.Errorf("dag: node %q is a dead end (no outgoing edges; connect it to FINISH)", id)
		}
	}
	if _, err := oracleTopoSort(g); err != nil {
		return err
	}
	fwd := g.reach(StartID, g.succ)
	back := g.reach(FinishID, g.pred)
	for _, id := range g.order {
		if !fwd[id] {
			return fmt.Errorf("dag: node %q not reachable from START", id)
		}
		if !back[id] {
			return fmt.Errorf("dag: FINISH not reachable from node %q", id)
		}
	}
	return nil
}

func oracleTopoSort(g *Graph) ([]string, error) {
	indeg := make(map[string]int, len(g.nodes))
	for id := range g.nodes {
		indeg[id] = len(g.pred[id])
	}
	pos := make(map[string]int, len(g.order))
	for i, id := range g.order {
		pos[id] = i
	}
	var ready []string
	for _, id := range g.order {
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
		for _, next := range g.succ[id] {
			indeg[next]--
			if indeg[next] == 0 {
				ready = append(ready, next)
			}
		}
	}
	if len(out) != len(g.nodes) {
		for _, id := range g.order {
			if indeg[id] > 0 {
				return nil, fmt.Errorf("dag: cycle involving node %q", id)
			}
		}
		return nil, errors.New("dag: cycle detected")
	}
	return out, nil
}

// randomGraph has n action nodes and random edges: mostly forward ones
// between action nodes, wired to the markers as Builder does, with now
// and then an edge anywhere AddEdge allows and a node left unwired.
func randomGraph(rng *rand.Rand, n int) *Graph {
	g := NewGraph()
	for i := 0; i < n; i++ {
		g.AddNode(&Node{ID: fmt.Sprintf("n%d", i), Action: Action{Op: fmt.Sprintf("op%d", rng.Intn(4))}})
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(n) < 2 {
				g.AddEdge(fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", j))
			}
		}
	}
	for _, id := range g.ActionIDs() {
		if rng.Intn(20) == 0 {
			continue
		}
		if len(g.pred[id]) == 0 {
			g.AddEdge(StartID, id)
		}
		if len(g.succ[id]) == 0 {
			g.AddEdge(id, FinishID)
		}
	}
	for rng.Intn(4) == 0 {
		g.AddEdge(g.order[rng.Intn(len(g.order))], g.order[rng.Intn(len(g.order))])
	}
	return g
}

// What the index holds is what the graph walks it replaces computed:
// the same verdict with the same message, the same order, the same
// ancestor sets — on valid, invalid and cyclic graphs, with bitsets of
// one word and of several.
func TestIndexMatchesGraphWalks(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	valid := 0
	for i := 0; i < 3000; i++ {
		n := 1 + rng.Intn(12)
		if i%100 == 0 {
			n = 60 + rng.Intn(100)
		}
		g := randomGraph(rng, n)
		got, want := g.Validate(), oracleValidate(g)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%v: Validate = %v, want %v", g.Edges(), got, want)
		}
		if want == nil {
			valid++
		}
		gotTopo, gotErr := g.TopoSort()
		wantTopo, wantErr := oracleTopoSort(g)
		if fmt.Sprint(gotTopo, gotErr) != fmt.Sprint(wantTopo, wantErr) {
			t.Fatalf("%v: TopoSort = %v, %v, want %v, %v", g.Edges(), gotTopo, gotErr, wantTopo, wantErr)
		}
		ix := g.Index()
		for p, id := range g.order {
			var fromIndex []string
			for q, other := range g.order {
				if ix.Ancestors(int32(p))[q/64]&(1<<(q%64)) != 0 {
					fromIndex = append(fromIndex, other)
				}
			}
			var walked []string
			for _, other := range g.order {
				if g.Ancestors(id)[other] {
					walked = append(walked, other)
				}
			}
			if fmt.Sprint(fromIndex) != fmt.Sprint(walked) {
				t.Fatalf("%v: ancestors of %s = %v, want %v", g.Edges(), id, fromIndex, walked)
			}
		}
	}
	if valid < 1000 {
		t.Errorf("%d of 3000 graphs valid: the generator is mostly producing rejects", valid)
	}
}

func TestIndexChainsNodesByKey(t *testing.T) {
	g := NewBuilder().
		Add("A", Action{Op: "x"}).
		Add("B", Action{Op: "y", Params: map[string]string{"k": "1"}}, "A").
		Add("C", Action{Op: "x"}, "A").
		Add("D", Action{Op: "x"}, "C").
		MustBuild()
	ix := g.Index()
	var chain []string
	for p := ix.First("x"); p >= 0; p = ix.Next(p) {
		chain = append(chain, ix.ID(p))
	}
	if fmt.Sprint(chain) != "[A C D]" {
		t.Errorf("nodes keyed x: %v, want [A C D]", chain)
	}
	if p := ix.First("y|k=1"); p < 0 || ix.ID(p) != "B" || ix.Next(p) != -1 {
		t.Errorf("nodes keyed y|k=1 start at %d", p)
	}
	// The markers' own ops are not keys a history can bind to.
	if ix.First("start") != -1 || ix.First("finish") != -1 || ix.First("z") != -1 {
		t.Error("First found a marker or an absent key")
	}
}

// The index is a memo: AddNode and AddEdge drop it, Clone does not
// share it.
func TestMutationDropsIndex(t *testing.T) {
	g := diamond(t)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	before := g.Index()
	if g.Index() != before {
		t.Error("Index rebuilt without a mutation")
	}

	c := g.Clone()
	c.AddNode(&Node{ID: "orphan", Action: Action{Op: "x"}})
	if err := c.Validate(); err == nil {
		t.Error("Validate still passes after AddNode left an orphan")
	}
	if err := g.Validate(); err != nil || g.Index() != before {
		t.Errorf("mutating a clone disturbed the original: %v", err)
	}

	g.AddEdge("D", "A")
	if err := g.Validate(); err == nil {
		t.Error("Validate still passes after AddEdge closed a cycle")
	}
	if _, err := g.TopoSort(); err == nil {
		t.Error("TopoSort still succeeds after AddEdge closed a cycle")
	}
	c = diamond(t).Clone()
	if topo, err := c.TopoSort(); err != nil || len(topo) != 6 {
		t.Errorf("clone of a valid graph: %v, %v", topo, err)
	}
}

// Key and Keys write what the sort-and-Builder Key wrote, past the
// sizes their stack buffers hold.
func TestKeyMatchesReference(t *testing.T) {
	reference := func(a Action) string {
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
	rng := rand.New(rand.NewSource(3))
	var acts []Action
	for i := 0; i < 200; i++ {
		a := Action{Op: fmt.Sprintf("op%d", rng.Intn(5))}
		if rng.Intn(4) > 0 {
			a.Params = map[string]string{}
			for j := rng.Intn(12); j > 0; j-- {
				a.Params[fmt.Sprintf("p%d", rng.Intn(30))] = strings.Repeat("v", rng.Intn(40))
			}
		}
		acts = append(acts, a)
	}
	keys := Keys(acts)
	for i, a := range acts {
		if want := reference(a); a.Key() != want || keys[i] != want {
			t.Fatalf("Key %q, Keys[%d] %q, want %q", a.Key(), i, keys[i], want)
		}
	}
	if got := Keys(nil); len(got) != 0 {
		t.Errorf("Keys(nil) = %v", got)
	}
}

func TestDecodeRejectsTooManyNodes(t *testing.T) {
	doc := func(n int) []byte {
		var b bytes.Buffer
		b.WriteString("<dag>")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, `<node id="n%d" action="x"/>`, i)
		}
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, `<edge from="START" to="n%d"/><edge from="n%d" to="FINISH"/>`, i, i)
		}
		b.WriteString("</dag>")
		return b.Bytes()
	}
	if _, err := Decode(bytes.NewReader(doc(maxWireNodes))); err != nil {
		t.Errorf("%d nodes: %v", maxWireNodes, err)
	}
	if _, err := Decode(bytes.NewReader(doc(maxWireNodes + 1))); err == nil || !strings.Contains(err.Error(), "exceed the limit") {
		t.Errorf("%d nodes: %v", maxWireNodes+1, err)
	}
	if _, err := scanGraph(doc(maxWireNodes + 1)); err == nil {
		t.Error("DecodeXML accepted a graph over the limit")
	}
}
