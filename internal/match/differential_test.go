package match

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"vmplants/internal/core"
	"vmplants/internal/dag"
)

// letter is a 16-key action alphabet — four ops, bare or with one of
// three parameter sets — small enough that random graphs repeat keys.
func letter(i int) dag.Action {
	a := dag.Action{Op: fmt.Sprintf("op%d", i%4)}
	switch i / 4 % 4 {
	case 1:
		a.Params = map[string]string{"k": "1"}
	case 2:
		a.Params = map[string]string{"k": "2"}
	case 3:
		a.Params = map[string]string{"k": "1", "j": "x"}
	}
	return a
}

var foreign = dag.Action{Op: "not-in-the-alphabet", Params: map[string]string{"k": "1"}}

// wireEnds connects nodes without predecessors to START and nodes
// without successors to FINISH, as Builder.Build does.
func wireEnds(g *dag.Graph) {
	for _, id := range g.ActionIDs() {
		if len(g.Predecessors(id)) == 0 {
			g.AddEdge(dag.StartID, id)
		}
		if len(g.Successors(id)) == 0 {
			g.AddEdge(id, dag.FinishID)
		}
	}
	if g.Len() == 0 {
		g.AddEdge(dag.StartID, dag.FinishID)
	}
}

// randomGraph builds n action nodes over the first letters keys. Nine
// in ten graphs are well formed: nodes are inserted in an order
// unrelated to the edges, which run from lower to higher node number.
// The tenth takes any edges AddEdge accepts, markers included, so it
// may be cyclic or fail Validate in other ways.
func randomGraph(rng *rand.Rand, n, letters int) *dag.Graph {
	g := dag.NewGraph()
	for _, i := range rng.Perm(n) {
		g.AddNode(&dag.Node{ID: fmt.Sprintf("n%d", i), Action: letter(rng.Intn(letters))})
	}
	if rng.Intn(10) == 0 {
		ids := g.NodeIDs()
		for e := rng.Intn(2*n + 2); e > 0; e-- {
			g.AddEdge(ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))])
		}
		if rng.Intn(2) == 0 {
			wireEnds(g)
		}
		return g
	}
	density := rng.Float64()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density*2/float64(n) {
				g.AddEdge(fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", j))
			}
		}
	}
	wireEnds(g)
	return g
}

// randomHistory draws a configuration history related to g in one of
// the ways the issue lists: a prefix of a random valid execution order,
// a shuffled subset, a superset, one with a foreign operation, or
// random letters (possibly more of them than g has nodes).
func randomHistory(rng *rand.Rand, g *dag.Graph, letters int) []dag.Action {
	action := func(id string) dag.Action {
		n, _ := g.Node(id)
		return n.Action
	}
	ids := g.ActionIDs()
	var hist []dag.Action
	switch rng.Intn(6) {
	case 0, 1: // prefix of a random linear extension
		done := map[string]bool{dag.StartID: true}
		for want := rng.Intn(len(ids) + 1); len(hist) < want; {
			var ready []string
			for _, id := range ids {
				ok := !done[id]
				for _, p := range g.Predecessors(id) {
					ok = ok && done[p]
				}
				if ok {
					ready = append(ready, id)
				}
			}
			if len(ready) == 0 {
				break
			}
			id := ready[rng.Intn(len(ready))]
			done[id] = true
			hist = append(hist, action(id))
		}
	case 2: // shuffled subset
		for _, i := range rng.Perm(len(ids))[:rng.Intn(len(ids)+1)] {
			hist = append(hist, action(ids[i]))
		}
	case 3: // superset
		for _, id := range ids {
			hist = append(hist, action(id))
		}
		hist = append(hist, letter(rng.Intn(letters)))
	case 4: // foreign operation somewhere
		for _, id := range ids[:rng.Intn(len(ids)+1)] {
			hist = append(hist, action(id))
		}
		at := rng.Intn(len(hist) + 1)
		hist = append(hist[:at], append([]dag.Action{foreign}, hist[at:]...)...)
	case 5: // random letters
		for i := rng.Intn(len(ids) + 4); i > 0; i-- {
			hist = append(hist, letter(rng.Intn(letters)))
		}
	}
	return hist
}

// sameAsOracle compares Evaluate with the oracle on everything but the
// Reason of a prefix failure, where the oracle names whichever missing
// prerequisite its map iteration met first.
func sameAsOracle(g *dag.Graph, hist []dag.Action) error {
	got, want := Evaluate(g, hist), oracleEvaluate(g, hist)
	if want.Failed == TestPrefix {
		got.Reason, want.Reason = "", ""
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%v\nhistory %v\n got %+v\nwant %+v", g, hist, got, want)
	}
	return nil
}

func TestEvaluateMatchesOracle(t *testing.T) {
	cases := 20000
	if testing.Short() {
		cases = 2000
	}
	rng := rand.New(rand.NewSource(17))
	outcomes := map[Test]int{}
	for i := 0; i < cases; i++ {
		letters := 2 + rng.Intn(15)
		g := randomGraph(rng, 1+rng.Intn(12), letters)
		hist := randomHistory(rng, g, letters)
		if err := sameAsOracle(g, hist); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		outcomes[oracleEvaluate(g, hist).Failed]++
	}
	t.Logf("outcomes over %d cases: %v", cases, outcomes)
	for _, o := range []Test{"", TestSubset, TestPrefix, TestPartialOrder} {
		if outcomes[o] < cases/50 {
			t.Errorf("only %d of %d cases ended in %q: the generator is not covering it", outcomes[o], cases, o)
		}
	}
}

func TestBestMatchesOracle(t *testing.T) {
	cases := 4000
	if testing.Short() {
		cases = 400
	}
	rng := rand.New(rand.NewSource(18))
	spec := hw(64, 2048)
	ranked := 0
	for i := 0; i < cases; i++ {
		letters := 2 + rng.Intn(15)
		g := randomGraph(rng, 1+rng.Intn(12), letters)
		cands := make([]Candidate, rng.Intn(9))
		for j := range cands {
			c := Candidate{
				// Few IDs and few disk sizes, so every tie-break runs.
				ID:        fmt.Sprintf("img%d", rng.Intn(5)),
				Hardware:  hw(64, 1024<<rng.Intn(3)),
				Performed: randomHistory(rng, g, letters),
			}
			if rng.Intn(6) == 0 {
				c.Hardware.Arch = "ppc"
			}
			if rng.Intn(2) == 0 {
				c.Keys = dag.Keys(c.Performed)
			}
			cands[j] = c
		}
		gotBest, gotOK := Best(spec, g, cands)
		wantBest, wantAll, wantOK := oracleBest(spec, g, cands)
		if gotOK != wantOK || !reflect.DeepEqual(gotBest, wantBest) {
			t.Fatalf("case %d: %v\n got %v %+v\nwant %v %+v", i, g, gotOK, gotBest, wantOK, wantBest)
		}
		if gotAll := ranking(spec, g, cands); !reflect.DeepEqual(gotAll, wantAll) {
			t.Fatalf("case %d: %v\n got order %+v\nwant %+v", i, g, gotAll, wantAll)
		}
		ranked += len(wantAll)
	}
	if ranked < cases/2 {
		t.Errorf("%d feasible candidates over %d cases: the generator is mostly producing rejects", ranked, cases)
	}
}

// Graphs whose bitsets span several words, up to sizes where the
// matcher's scratch space no longer fits its stack arrays.
func TestLargeGraphsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, n := range []int{63, 70, 150, 300} {
		for i := 0; i < 12; i++ {
			g := randomGraph(rng, n, 16)
			if err := sameAsOracle(g, randomHistory(rng, g, 16)); err != nil {
				t.Fatalf("%d nodes: %v", n, err)
			}
		}
	}
}

// fuzzCase decodes bytes into a graph and a history. The first byte is
// the node count; then one key byte per node; then two bytes per node
// of edges into it — bit j is an edge from node j (a higher-numbered j
// makes a back edge, so cycles are reachable), bits 12 and 13 wire the
// node to the markers the wrong way round; what is left is the history,
// one key byte per operation, the top few values foreign.
func fuzzCase(data []byte) (*dag.Graph, []dag.Action) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := 1 + next()%12
	g := dag.NewGraph()
	for i := 0; i < n; i++ {
		g.AddNode(&dag.Node{ID: fmt.Sprintf("n%d", i), Action: letter(next())})
	}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("n%d", i)
		deps := next() | next()<<8
		for j := 0; j < n; j++ {
			if deps&(1<<j) != 0 {
				g.AddEdge(fmt.Sprintf("n%d", j), id)
			}
		}
		if deps&(1<<12) != 0 {
			g.AddEdge(dag.FinishID, id)
		}
		if deps&(1<<13) != 0 {
			g.AddEdge(id, dag.StartID)
		}
	}
	wireEnds(g)
	var hist []dag.Action
	for len(data) > 0 {
		if b := next(); b >= 250 {
			hist = append(hist, foreign)
		} else {
			hist = append(hist, letter(b))
		}
	}
	return g, hist
}

// fuzzSeed encodes a case for fuzzCase.
func fuzzSeed(letters []int, deps []int, hist ...int) []byte {
	out := []byte{byte(len(letters) - 1)}
	for _, l := range letters {
		out = append(out, byte(l))
	}
	for _, d := range deps {
		out = append(out, byte(d), byte(d>>8))
	}
	for _, h := range hist {
		out = append(out, byte(h))
	}
	return out
}

func FuzzEvaluate(f *testing.F) {
	// Figure 3: the chain A…F, then G and I under F and H under G; the
	// cached image has A, B, C.
	f.Add(fuzzSeed([]int{0, 1, 2, 3, 4, 5, 6, 7, 8},
		[]int{0, 1 << 0, 1 << 1, 1 << 2, 1 << 3, 1 << 4, 1 << 5, 1 << 5, 1 << 6}, 0, 1, 2))
	// TestDuplicateKeysBindInAncestorOrder: A, B←A, X2←B, X1←A with one
	// key for both Xs; the image ran A and the script once.
	f.Add(fuzzSeed([]int{0, 1, 2, 2}, []int{0, 1 << 0, 1 << 1, 1 << 0}, 0, 2))
	// TestDuplicateKeysExhaustInGraphOrder: A, S1←A, S2←A.
	f.Add(fuzzSeed([]int{0, 1, 1}, []int{0, 1 << 0, 1 << 0}, 0, 1, 1))
	// A two-node cycle and a node FINISH leads into.
	f.Add(fuzzSeed([]int{0, 1}, []int{1 << 1, 1 << 0}, 0, 1))
	f.Add(fuzzSeed([]int{0, 1}, []int{0, 1<<0 | 1<<12}, 0, 1, 250))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, hist := fuzzCase(data)
		if err := sameAsOracle(g, hist); err != nil {
			t.Fatal(err)
		}
		// Best over nine of the history's prefixes, from none to all of
		// it, two images per prefix on alternating disks and repeating
		// IDs, so every tie-break runs.
		var cands []Candidate
		for i := range 9 {
			for _, id := range []string{"b", "a"} {
				cands = append(cands, Candidate{ID: fmt.Sprintf("%s%d", id, i%3), Hardware: hw(64, 1024<<(i%2)), Performed: hist[:len(hist)*i/8]})
			}
		}
		got, ok := Best(hw(64, 1024), g, cands)
		want, _, wantOK := oracleBest(hw(64, 1024), g, cands)
		if ok != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("%v\nhistory %v\n got %v %+v\nwant %v %+v", g, hist, ok, got, wantOK, want)
		}
		// Any over every suffix of the candidates, so the first that
		// passes sits anywhere in the list or nowhere.
		for i := range cands {
			_, _, wantOK := oracleBest(hw(64, 1024), g, cands[i:])
			if Any(hw(64, 1024), g, cands[i:]) != wantOK {
				t.Fatalf("%v\nhistory %v\nAny over candidates %d.. = %v, oracle says %v", g, hist, i, !wantOK, wantOK)
			}
		}
	})
}

// The seeds above decode to what their comments say.
func TestFuzzSeedsDecode(t *testing.T) {
	g, hist := fuzzCase(fuzzSeed([]int{0, 1, 2, 2}, []int{0, 1 << 0, 1 << 1, 1 << 0}, 0, 2))
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	r := Evaluate(g, hist)
	if want := []string{"n0", "n3"}; !r.OK || !reflect.DeepEqual(r.Matched, want) {
		t.Errorf("matched %v (%s), want %v", r.Matched, r.Reason, want)
	}
	g, hist = fuzzCase(fuzzSeed([]int{0, 1}, []int{1 << 1, 1 << 0}, 0, 1))
	if r := Evaluate(g, hist); g.Validate() == nil || r.Failed != TestPartialOrder {
		t.Errorf("cyclic seed: Validate %v, Evaluate %+v", g.Validate(), r)
	}
}

// Bugfix pin: a prefix failure names the first missing prerequisite in
// node insertion order. The old matcher ranged over a map of ancestors,
// so the same pair gave "…prerequisite A" on one run and "…B" on the
// next.
func TestPrefixReasonNamesFirstMissingPrerequisite(t *testing.T) {
	g := invigoGraph(t)
	d, _ := g.Node("D")
	for i := 0; i < 50; i++ {
		r := Evaluate(g, []dag.Action{d.Action})
		if want := "image has D but not its prerequisite A"; r.Failed != TestPrefix || r.Reason != want {
			t.Fatalf("run %d: %s: %q, want %q", i, r.Failed, r.Reason, want)
		}
	}
	// With A present the first one missing is B.
	a, _ := g.Node("A")
	r := Evaluate(g, []dag.Action{a.Action, d.Action})
	if want := "image has D but not its prerequisite B"; r.Reason != want {
		t.Errorf("%q, want %q", r.Reason, want)
	}
}

// The index is a memo on the graph; a mutation must drop it.
func TestMutationAfterMatchChangesNextMatch(t *testing.T) {
	g := dag.NewGraph()
	g.AddNode(&dag.Node{ID: "A", Action: letter(0)})
	g.AddNode(&dag.Node{ID: "B", Action: letter(1)})
	wireEnds(g)
	onlyB := []dag.Action{letter(1)}
	if r := Evaluate(g, onlyB); !r.OK || !reflect.DeepEqual(r.Residual, []string{"A"}) {
		t.Fatalf("before: %+v", r)
	}
	// AddEdge: B now needs A.
	if err := g.AddEdge("A", "B"); err != nil {
		t.Fatal(err)
	}
	if r := Evaluate(g, onlyB); r.Failed != TestPrefix {
		t.Errorf("after AddEdge(A,B): %+v, want a prefix failure", r)
	}
	// AddNode: one more thing left to do, and one more key to bind.
	g.AddNode(&dag.Node{ID: "C", Action: letter(2)})
	g.AddEdge("B", "C")
	g.AddEdge("C", dag.FinishID)
	r := Evaluate(g, []dag.Action{letter(0), letter(1)})
	if !r.OK || !reflect.DeepEqual(r.Residual, []string{"C"}) {
		t.Errorf("after AddNode(C): %+v, want residual [C]", r)
	}
	if r := Evaluate(g, []dag.Action{letter(0), letter(1), letter(2)}); !r.OK || r.Score() != 3 {
		t.Errorf("history with C: %+v", r)
	}
}

// Many goroutines may plan against one request at once (every plant of
// a bid round shares the *core.Spec); the first of them builds the
// index. Run under -race.
func TestConcurrentMatchOnOneGraph(t *testing.T) {
	spec, cands := hw(64, 4096), catalogCandidates()
	want, _, _ := oracleBest(spec, invigoGraph(t), cands)
	for round := 0; round < 20; round++ {
		g := invigoGraph(t)
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, ok := Best(spec, g, cands)
				if !ok || !reflect.DeepEqual(got.Result, want.Result) || got.Candidate.ID != want.Candidate.ID {
					t.Errorf("got %+v, want %+v", got, want)
				}
			}()
		}
		wg.Wait()
	}
}

// Allocation ceiling: choosing among the catalog workload's 67
// candidates against a graph whose index is built costs only the
// winner's Matched and Residual lists (it was 4 610 allocations when
// every feasible candidate was ranked on maps, and 200 when each one
// still got its lists).
func TestBestAllocationCeiling(t *testing.T) {
	g, cands := invigoGraph(t), catalogCandidates()
	if len(cands) != 67 {
		t.Fatalf("%d candidates", len(cands))
	}
	spec := core.HardwareSpec{Arch: "x86", MemoryMB: 64, DiskMB: 4096}
	if _, all, ok := oracleBest(spec, g, cands); !ok || len(all) < 10 {
		t.Fatalf("catalog mix ranks %d candidates", len(all))
	}
	if n := testing.AllocsPerRun(50, func() { Best(spec, g, cands) }); n > 2 {
		t.Errorf("Best over 67 candidates: %.0f allocations, want ≤ 2", n)
	}
}
