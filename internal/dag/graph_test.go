package dag

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// diamond builds START → A → {B, C} → D → FINISH.
func diamond(t *testing.T) *Graph {
	t.Helper()
	return NewBuilder().
		Add("A", Action{Op: "install-os"}).
		Add("B", Action{Op: "install-package", Params: map[string]string{"name": "vnc"}}, "A").
		Add("C", Action{Op: "install-package", Params: map[string]string{"name": "wfm"}}, "A").
		Add("D", Action{Op: "start-service"}, "B", "C").
		MustBuild()
}

func TestBuilderWiresStartAndFinish(t *testing.T) {
	g := diamond(t)
	if got := g.Successors(StartID); len(got) != 1 || got[0] != "A" {
		t.Errorf("START successors = %v", got)
	}
	if got := g.Predecessors(FinishID); len(got) != 1 || got[0] != "D" {
		t.Errorf("FINISH predecessors = %v", got)
	}
	if g.Len() != 4 {
		t.Errorf("Len = %d", g.Len())
	}
}

func TestEmptyDAGIsValid(t *testing.T) {
	g, err := NewBuilder().Build()
	if err != nil {
		t.Fatal(err)
	}
	topo, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	if len(topo) != 2 || topo[0] != StartID || topo[1] != FinishID {
		t.Errorf("topo = %v", topo)
	}
}

func TestTopoSortRespectsEdges(t *testing.T) {
	g := diamond(t)
	topo, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, id := range topo {
		pos[id] = i
	}
	for _, e := range g.Edges() {
		if pos[e[0]] >= pos[e[1]] {
			t.Errorf("edge %v violated in topo %v", e, topo)
		}
	}
	// Deterministic tie-break by insertion order: B before C.
	if pos["B"] >= pos["C"] {
		t.Errorf("insertion-order tie break violated: %v", topo)
	}
}

func TestTopoSortDeterministic(t *testing.T) {
	g := diamond(t)
	a, _ := g.TopoSort()
	for i := 0; i < 10; i++ {
		b, _ := g.TopoSort()
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("topo not deterministic: %v vs %v", a, b)
			}
		}
	}
}

func TestCycleDetection(t *testing.T) {
	g := NewGraph()
	g.AddNode(&Node{ID: "A", Action: Action{Op: "x"}})
	g.AddNode(&Node{ID: "B", Action: Action{Op: "y"}})
	g.AddEdge(StartID, "A")
	g.AddEdge("A", "B")
	g.AddEdge("B", "A")
	g.AddEdge("B", FinishID)
	if _, err := g.TopoSort(); err == nil {
		t.Error("cycle not detected")
	}
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted a cyclic graph")
	}
}

func TestValidateRejectsUnreachable(t *testing.T) {
	g := NewGraph()
	g.AddNode(&Node{ID: "A", Action: Action{Op: "x"}})
	g.AddEdge(StartID, FinishID)
	// A has no edges at all.
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted orphan node")
	}
}

func TestValidateRejectsEdgesIntoStart(t *testing.T) {
	g := NewGraph()
	g.AddNode(&Node{ID: "A", Action: Action{Op: "x"}})
	g.AddEdge("A", StartID)
	g.AddEdge(StartID, FinishID)
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted edge into START")
	}
}

func TestAddNodeErrors(t *testing.T) {
	g := NewGraph()
	if err := g.AddNode(&Node{ID: StartID}); err == nil {
		t.Error("reserved ID accepted")
	}
	if err := g.AddNode(&Node{ID: ""}); err == nil {
		t.Error("empty ID accepted")
	}
	g.AddNode(&Node{ID: "A"})
	if err := g.AddNode(&Node{ID: "A"}); err == nil {
		t.Error("duplicate ID accepted")
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := NewGraph()
	g.AddNode(&Node{ID: "A"})
	if err := g.AddEdge("A", "missing"); err == nil {
		t.Error("edge to unknown node accepted")
	}
	if err := g.AddEdge("A", "A"); err == nil {
		t.Error("self edge accepted")
	}
	g.AddEdge(StartID, "A")
	if err := g.AddEdge(StartID, "A"); err == nil {
		t.Error("duplicate edge accepted")
	}
}

func TestAncestorsDescendants(t *testing.T) {
	g := diamond(t)
	anc := g.Ancestors("D")
	for _, want := range []string{"A", "B", "C", StartID} {
		if !anc[want] {
			t.Errorf("Ancestors(D) missing %s: %v", want, anc)
		}
	}
	if anc["D"] || anc[FinishID] {
		t.Errorf("Ancestors(D) contains D or FINISH: %v", anc)
	}
	desc := g.Descendants("A")
	for _, want := range []string{"B", "C", "D", FinishID} {
		if !desc[want] {
			t.Errorf("Descendants(A) missing %s", want)
		}
	}
	if !g.Before("A", "D") || g.Before("D", "A") || g.Before("B", "C") {
		t.Error("Before relation wrong")
	}
}

func TestIsLinearExtension(t *testing.T) {
	g := diamond(t)
	cases := []struct {
		seq  []string
		want bool
	}{
		{[]string{"A", "B", "C", "D"}, true},
		{[]string{"A", "C", "B", "D"}, true}, // B,C unordered
		{[]string{"B", "A"}, false},          // violates A before B
		{[]string{"A", "B"}, true},           // prefixes are fine
		{[]string{"A", "A"}, false},          // duplicates
		{[]string{"A", "Z"}, false},          // unknown node
		{nil, true},
	}
	for _, c := range cases {
		if got := g.IsLinearExtension(c.seq); got != c.want {
			t.Errorf("IsLinearExtension(%v) = %v, want %v", c.seq, got, c.want)
		}
	}
}

func TestActionKeyCanonicalOrder(t *testing.T) {
	a := Action{Op: "install", Params: map[string]string{"b": "2", "a": "1"}}
	b := Action{Op: "install", Params: map[string]string{"a": "1", "b": "2"}}
	if a.Key() != b.Key() {
		t.Errorf("keys differ: %q vs %q", a.Key(), b.Key())
	}
	c := Action{Op: "install", Params: map[string]string{"a": "1", "b": "3"}}
	if a.Key() == c.Key() {
		t.Error("different params produced equal keys")
	}
	bare := Action{Op: "install"}
	if bare.Key() != "install" {
		t.Errorf("bare key = %q", bare.Key())
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := diamond(t)
	c := g.Clone()
	n, _ := c.Node("B")
	n.Action.Params["name"] = "mutated"
	orig, _ := g.Node("B")
	if orig.Action.Params["name"] != "vnc" {
		t.Error("clone shares params map")
	}
	c.AddNode(&Node{ID: "E", Action: Action{Op: "z"}})
	if _, ok := g.Node("E"); ok {
		t.Error("clone shares node map")
	}
}

func TestChainBuilder(t *testing.T) {
	g := NewBuilder().Chain(
		[]string{"A", "B", "C"},
		[]Action{{Op: "a"}, {Op: "b"}, {Op: "c"}},
	).MustBuild()
	if !g.Before("A", "B") || !g.Before("B", "C") {
		t.Error("chain order missing")
	}
}

func TestChainLengthMismatch(t *testing.T) {
	if _, err := NewBuilder().Chain([]string{"A"}, nil).Build(); err == nil {
		t.Error("mismatched chain accepted")
	}
}

func TestXMLRoundTrip(t *testing.T) {
	g := NewBuilder().
		AddWithPolicy("A", Action{Op: "install-os", Target: Guest, Params: map[string]string{"distro": "redhat-8.0"}},
			ErrorPolicy{Retries: 2, Continue: true, Handler: []Action{{Op: "run-script", Params: map[string]string{"script": "fix.sh"}}}}).
		Add("B", Action{Op: "attach-iso", Target: Host}, "A").
		MustBuild()

	var buf bytes.Buffer
	if err := g.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatalf("decode: %v\nxml was:\n%s", err, buf.String())
	}
	if back.Len() != 2 {
		t.Fatalf("round trip lost nodes: %v", back.NodeIDs())
	}
	a, _ := back.Node("A")
	if a.Action.Params["distro"] != "redhat-8.0" {
		t.Errorf("params lost: %+v", a.Action)
	}
	if a.OnError.Retries != 2 || !a.OnError.Continue || len(a.OnError.Handler) != 1 {
		t.Errorf("error policy lost: %+v", a.OnError)
	}
	if a.OnError.Handler[0].Params["script"] != "fix.sh" {
		t.Errorf("handler params lost: %+v", a.OnError.Handler)
	}
	b, _ := back.Node("B")
	if b.Action.Target != Host {
		t.Errorf("target lost: %v", b.Action.Target)
	}
	if !back.Before("A", "B") {
		t.Error("edges lost")
	}
}

func TestDecodeRejectsInvalidGraph(t *testing.T) {
	// Cycle in the XML must be rejected at decode time.
	bad := `<dag>
	  <node id="A" action="x"/><node id="B" action="y"/>
	  <edge from="START" to="A"/><edge from="A" to="B"/>
	  <edge from="B" to="A"/><edge from="B" to="FINISH"/>
	</dag>`
	if _, err := Decode(strings.NewReader(bad)); err == nil {
		t.Error("cyclic XML accepted")
	}
	if _, err := Decode(strings.NewReader(`<dag><node id="A" action="x" target="mars"/></dag>`)); err == nil {
		t.Error("bad target accepted")
	}
}

func TestTopoSortIsLinearExtensionProperty(t *testing.T) {
	// Property: for random DAGs, TopoSort always yields a linear
	// extension, and each node appears exactly once.
	check := func(seed int64, nNodes uint8, density uint8) bool {
		n := int(nNodes%8) + 2
		b := NewBuilder()
		ids := make([]string, n)
		for i := 0; i < n; i++ {
			ids[i] = string(rune('A' + i))
			// Edges only from lower to higher index → always acyclic.
			var deps []string
			for j := 0; j < i; j++ {
				if (seed>>(uint(i*7+j)%60))&1 == 1 && int(density)%3 != 0 {
					deps = append(deps, ids[j])
				}
			}
			b.Add(ids[i], Action{Op: "op"}, deps...)
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		topo, err := g.TopoSort()
		if err != nil {
			return false
		}
		if len(topo) != n+2 {
			return false
		}
		var acts []string
		for _, id := range topo {
			if id != StartID && id != FinishID {
				acts = append(acts, id)
			}
		}
		return g.IsLinearExtension(acts)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestStringMentionsNodes(t *testing.T) {
	g := diamond(t)
	s := g.String()
	for _, id := range []string{"START", "A", "D", "FINISH"} {
		if !strings.Contains(s, id) {
			t.Errorf("String() %q missing %s", s, id)
		}
	}
}

func TestDOTOutput(t *testing.T) {
	g := NewBuilder().
		Add("A", Action{Op: "install-os"}).
		Add("B", Action{Op: "install-package", Params: map[string]string{"name": `we"ird`}}, "A").
		MustBuild()
	dot := g.DOT()
	for _, want := range []string{
		"digraph config", `"START" [shape=circle]`, `"FINISH" [shape=doublecircle]`,
		`label="A\ninstall-os"`, `"A" -> "B"`, `we\"ird`,
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	if strings.Contains(dot, `we"ird`) {
		t.Error("unescaped quote in DOT label")
	}
}

// Every name in the DOT output is quoted one way: an ID holding `"` or
// `\` is declared once, and each edge names it as declared, so Graphviz
// draws no second node for it. IDs that differ only in a quote character
// stay two nodes.
func TestDOTEdgesNameDeclaredNodes(t *testing.T) {
	odd, dq, sq := `a"b\c`, `a"b`, `a'b`
	g := NewBuilder().
		Add(odd, Action{Op: "install-os"}).
		Add(dq, Action{Op: "install-os"}).
		Add(sq, Action{Op: "install-os"}).
		Add("B", Action{Op: "install-package"}, odd, dq, sq).
		MustBuild()
	declared := map[string]bool{}
	var ends []string
	for _, line := range strings.Split(g.DOT(), "\n") {
		line = strings.TrimSpace(line)
		if from, to, ok := strings.Cut(line, " -> "); ok {
			ends = append(ends, from, strings.TrimSuffix(to, ";"))
		} else if name, _, ok := strings.Cut(line, " ["); ok {
			declared[name] = true
		}
	}
	if len(ends) != 2*len(g.Edges()) || len(declared) != 6 {
		t.Fatalf("%d edge ends and %d declared nodes in\n%s", len(ends), len(declared), g.DOT())
	}
	for _, end := range ends {
		if !declared[end] {
			t.Errorf("edge end %s is not a declared node:\n%s", end, g.DOT())
		}
	}
}

// Builder wires a chain in time linear in its length: one chain of
// 4 096 nodes builds within twice the time of 16 chains of 256.
func TestBuilderChainBuildsInLinearTime(t *testing.T) {
	chain := func(n int) func() {
		ids, acts := make([]string, n), make([]Action, n)
		for i := range ids {
			ids[i], acts[i] = fmt.Sprintf("n%d", i), Action{Op: "x"}
		}
		return func() { NewBuilder().Chain(ids, acts).MustBuild() }
	}
	best := func(build func(), times int) time.Duration {
		var min time.Duration
		for range 5 {
			runtime.GC() // so that neither pays for the other's garbage
			start := time.Now()
			for range times {
				build()
			}
			if d := time.Since(start); min == 0 || d < min {
				min = d
			}
		}
		return min
	}
	long, short := best(chain(4096), 1), best(chain(256), 16)
	t.Logf("4096 nodes in %v, 16 × 256 in %v", long, short)
	if long > 2*short {
		t.Errorf("a 4096-node chain builds in %v, %.1f× the time of 16 chains of 256 (%v); want ≤ 2×",
			long, float64(long)/float64(short), short)
	}
}
