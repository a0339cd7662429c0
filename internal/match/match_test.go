package match

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"vmplants/internal/actions"
	"vmplants/internal/core"
	"vmplants/internal/dag"
)

func act(op string, kv ...string) dag.Action {
	p := map[string]string{}
	for i := 0; i+1 < len(kv); i += 2 {
		p[kv[i]] = kv[i+1]
	}
	tgt, _ := actions.DefaultTarget(op)
	return dag.Action{Op: op, Target: tgt, Params: p}
}

// invigoGraph reproduces the paper's Figure 3 In-VIGO virtual-workspace
// DAG: A installs the OS, B/C install servers, D-F personalize, G
// configures VNC, H and I start the services.
func invigoGraph(t testing.TB) *dag.Graph {
	t.Helper()
	g, err := dag.NewBuilder().
		Add("A", act(actions.OpInstallOS, "distro", "redhat-8.0")).
		Add("B", act(actions.OpInstallPackage, "name", "vnc-server"), "A").
		Add("C", act(actions.OpInstallPackage, "name", "web-file-manager"), "B").
		Add("D", act(actions.OpConfigureNetwork, "mac", "00:50:56:01", "ip", "10.1.0.7"), "C").
		Add("E", act(actions.OpCreateUser, "name", "arijit"), "D").
		Add("F", act(actions.OpMountFS, "source", "nfs:/home/arijit", "mountpoint", "/home/arijit"), "E").
		Add("G", act(actions.OpConfigureService, "name", "vnc"), "F").
		Add("I", act(actions.OpStartService, "name", "file-manager"), "F").
		Add("H", act(actions.OpStartService, "name", "vnc"), "G").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// cachedABC is the warehouse image of Figure 3: a machine with the OS
// and both servers installed (operations A, B, C).
func cachedABC() []dag.Action {
	return []dag.Action{
		act(actions.OpInstallOS, "distro", "redhat-8.0"),
		act(actions.OpInstallPackage, "name", "vnc-server"),
		act(actions.OpInstallPackage, "name", "web-file-manager"),
	}
}

func TestFigure3PartialMatch(t *testing.T) {
	g := invigoGraph(t)
	r := Evaluate(g, cachedABC())
	if !r.OK {
		t.Fatalf("match failed: %s (%s)", r.Failed, r.Reason)
	}
	if len(r.Matched) != 3 || r.Matched[0] != "A" || r.Matched[1] != "B" || r.Matched[2] != "C" {
		t.Errorf("Matched = %v", r.Matched)
	}
	// Residual per Figure 3 step 5: D E F then G I H (topological).
	want := []string{"D", "E", "F", "G", "I", "H"}
	if len(r.Residual) != len(want) {
		t.Fatalf("Residual = %v, want %v", r.Residual, want)
	}
	for i := range want {
		if r.Residual[i] != want[i] {
			t.Errorf("Residual = %v, want %v", r.Residual, want)
			break
		}
	}
	if r.Score() != 3 {
		t.Errorf("Score = %d", r.Score())
	}
}

func TestEmptyImageMatchesEverything(t *testing.T) {
	g := invigoGraph(t)
	r := Evaluate(g, nil)
	if !r.OK {
		t.Fatalf("blank image failed: %s", r.Reason)
	}
	if r.Score() != 0 || len(r.Residual) != 9 {
		t.Errorf("blank image score=%d residual=%v", r.Score(), r.Residual)
	}
}

func TestFullMatchHasEmptyResidual(t *testing.T) {
	g := invigoGraph(t)
	full := append(cachedABC(),
		act(actions.OpConfigureNetwork, "mac", "00:50:56:01", "ip", "10.1.0.7"),
		act(actions.OpCreateUser, "name", "arijit"),
		act(actions.OpMountFS, "source", "nfs:/home/arijit", "mountpoint", "/home/arijit"),
		act(actions.OpConfigureService, "name", "vnc"),
		act(actions.OpStartService, "name", "file-manager"),
		act(actions.OpStartService, "name", "vnc"),
	)
	r := Evaluate(g, full)
	if !r.OK {
		t.Fatalf("full match failed: %s (%s)", r.Failed, r.Reason)
	}
	if len(r.Residual) != 0 {
		t.Errorf("Residual = %v, want empty", r.Residual)
	}
}

func TestSubsetTestFails(t *testing.T) {
	g := invigoGraph(t)
	// Image has an operation the request does not want.
	perf := append(cachedABC(), act(actions.OpInstallPackage, "name", "matlab"))
	r := Evaluate(g, perf)
	if r.OK || r.Failed != TestSubset {
		t.Errorf("got %+v, want subset failure", r)
	}
	if !strings.Contains(r.Reason, "not required") {
		t.Errorf("reason = %q", r.Reason)
	}
}

func TestSubsetDiffersByParams(t *testing.T) {
	g := invigoGraph(t)
	// Same op, different parameters: a different operation for matching.
	perf := []dag.Action{act(actions.OpInstallOS, "distro", "debian-3.0")}
	r := Evaluate(g, perf)
	if r.OK || r.Failed != TestSubset {
		t.Errorf("got %+v, want subset failure on param mismatch", r)
	}
}

func TestPrefixTestFails(t *testing.T) {
	g := invigoGraph(t)
	// Image has B (VNC server) without its prerequisite A (the OS) —
	// impossible history, and exactly what the prefix test rejects.
	perf := []dag.Action{act(actions.OpInstallPackage, "name", "vnc-server")}
	r := Evaluate(g, perf)
	if r.OK || r.Failed != TestPrefix {
		t.Errorf("got %+v, want prefix failure", r)
	}
}

func TestPartialOrderTestFails(t *testing.T) {
	// Parallel-capable graph where the image recorded an order the DAG
	// forbids. Use a graph with X before Y, image performed Y then X.
	g := dag.NewBuilder().
		Add("OS", act(actions.OpInstallOS, "distro", "linux")).
		Add("X", act(actions.OpInstallPackage, "name", "x"), "OS").
		Add("Y", act(actions.OpInstallPackage, "name", "y"), "X").
		MustBuild()
	perf := []dag.Action{
		act(actions.OpInstallOS, "distro", "linux"),
		act(actions.OpInstallPackage, "name", "y"),
		act(actions.OpInstallPackage, "name", "x"),
	}
	r := Evaluate(g, perf)
	if r.OK || r.Failed != TestPartialOrder {
		t.Errorf("got %+v, want partial-order failure", r)
	}
}

func TestUnorderedSiblingsEitherOrder(t *testing.T) {
	// X and Y unordered in the DAG: both performed orders must match.
	g := dag.NewBuilder().
		Add("OS", act(actions.OpInstallOS, "distro", "linux")).
		Add("X", act(actions.OpInstallPackage, "name", "x"), "OS").
		Add("Y", act(actions.OpInstallPackage, "name", "y"), "OS").
		MustBuild()
	for _, order := range [][]string{{"x", "y"}, {"y", "x"}} {
		perf := []dag.Action{act(actions.OpInstallOS, "distro", "linux")}
		for _, n := range order {
			perf = append(perf, act(actions.OpInstallPackage, "name", n))
		}
		r := Evaluate(g, perf)
		if !r.OK {
			t.Errorf("order %v rejected: %s (%s)", order, r.Failed, r.Reason)
		}
	}
}

func TestDuplicateKeyNodesBindDistinctly(t *testing.T) {
	// Two DAG nodes with identical action keys: one performed instance
	// must match only one of them.
	g := dag.NewBuilder().
		Add("OS", act(actions.OpInstallOS, "distro", "linux")).
		Add("R1", act(actions.OpRunScript, "script", "tune.sh"), "OS").
		Add("R2", act(actions.OpRunScript, "script", "tune.sh"), "R1").
		MustBuild()
	perf := []dag.Action{
		act(actions.OpInstallOS, "distro", "linux"),
		act(actions.OpRunScript, "script", "tune.sh"),
	}
	r := Evaluate(g, perf)
	if !r.OK {
		t.Fatalf("match failed: %s (%s)", r.Failed, r.Reason)
	}
	if len(r.Matched) != 2 || len(r.Residual) != 1 {
		t.Errorf("matched=%v residual=%v", r.Matched, r.Residual)
	}
	// Three performed instances of a twice-required op: subset failure.
	perf = append(perf, act(actions.OpRunScript, "script", "tune.sh"), act(actions.OpRunScript, "script", "tune.sh"))
	if r := Evaluate(g, perf); r.OK || r.Failed != TestSubset {
		t.Errorf("over-performed image: %+v", r)
	}
}

func hw(mem, disk int) core.HardwareSpec {
	return core.HardwareSpec{Arch: "x86", MemoryMB: mem, DiskMB: disk}
}

func TestBestPrefersLongestMatch(t *testing.T) {
	g := invigoGraph(t)
	cands := []Candidate{
		{ID: "blank", Hardware: hw(64, 4096)},
		{ID: "os-only", Hardware: hw(64, 4096), Performed: cachedABC()[:1]},
		{ID: "workspace", Hardware: hw(64, 4096), Performed: cachedABC()},
	}
	best, ok := Best(hw(64, 4096), g, cands)
	if !ok {
		t.Fatal("no feasible candidate")
	}
	if best.Candidate.ID != "workspace" {
		t.Errorf("best = %s", best.Candidate.ID)
	}
	all := ranking(hw(64, 4096), g, cands)
	if _, want, _ := oracleBest(hw(64, 4096), g, cands); !reflect.DeepEqual(all, want) {
		t.Errorf("ranking %+v, oracle %+v", all, want)
	}
	if len(all) != 3 {
		t.Errorf("feasible count = %d", len(all))
	}
	if all[1].Candidate.ID != "os-only" || all[2].Candidate.ID != "blank" {
		t.Errorf("ranking = %v, %v", all[1].Candidate.ID, all[2].Candidate.ID)
	}
}

func TestBestHardwareFiltering(t *testing.T) {
	g := invigoGraph(t)
	cands := []Candidate{
		{ID: "wrong-mem", Hardware: hw(32, 4096), Performed: cachedABC()},
		{ID: "small-disk", Hardware: hw(64, 1024), Performed: cachedABC()},
		{ID: "wrong-arch", Hardware: core.HardwareSpec{Arch: "sparc", MemoryMB: 64, DiskMB: 4096}, Performed: cachedABC()},
	}
	if _, ok := Best(hw(64, 4096), g, cands); ok {
		t.Error("infeasible hardware matched")
	}
	// Bigger disk than requested is fine.
	cands = append(cands, Candidate{ID: "big-disk", Hardware: hw(64, 8192), Performed: cachedABC()})
	best, ok := Best(hw(64, 4096), g, cands)
	if !ok || best.Candidate.ID != "big-disk" {
		t.Errorf("best = %+v ok=%v", best.Candidate.ID, ok)
	}
}

func TestBestTieBreaks(t *testing.T) {
	g := invigoGraph(t)
	cands := []Candidate{
		{ID: "b", Hardware: hw(64, 8192), Performed: cachedABC()},
		{ID: "a", Hardware: hw(64, 8192), Performed: cachedABC()},
		{ID: "lean", Hardware: hw(64, 4096), Performed: cachedABC()},
	}
	best, ok := Best(hw(64, 4096), g, cands)
	if !ok {
		t.Fatal("no match")
	}
	if best.Candidate.ID != "lean" {
		t.Errorf("disk tie-break failed: best = %s", best.Candidate.ID)
	}
	all := ranking(hw(64, 4096), g, cands)
	if _, want, _ := oracleBest(hw(64, 4096), g, cands); !reflect.DeepEqual(all, want) {
		t.Errorf("ranking %+v, oracle %+v", all, want)
	}
	if all[1].Candidate.ID != "a" || all[2].Candidate.ID != "b" {
		t.Errorf("ID tie-break failed: %s, %s", all[1].Candidate.ID, all[2].Candidate.ID)
	}
}

func TestTemplateEvaluateRequiresExactCover(t *testing.T) {
	g := invigoGraph(t)
	if r := TemplateEvaluate(g, cachedABC()); r.OK {
		t.Error("template match accepted partial image")
	}
	full := append(cachedABC(),
		act(actions.OpConfigureNetwork, "mac", "00:50:56:01", "ip", "10.1.0.7"),
		act(actions.OpCreateUser, "name", "arijit"),
		act(actions.OpMountFS, "source", "nfs:/home/arijit", "mountpoint", "/home/arijit"),
		act(actions.OpConfigureService, "name", "vnc"),
		act(actions.OpStartService, "name", "file-manager"),
		act(actions.OpStartService, "name", "vnc"),
	)
	if r := TemplateEvaluate(g, full); !r.OK {
		t.Errorf("template rejected exact image: %s (%s)", r.Failed, r.Reason)
	}
}

// Property: for any valid prefix of any topological order of a random
// chain-with-branches DAG, Evaluate must succeed and matched+residual
// must partition the action set.
func TestEvaluateAcceptsTopoPrefixesProperty(t *testing.T) {
	check := func(seed int64, cut uint8) bool {
		b := dag.NewBuilder()
		b.Add("OS", act(actions.OpInstallOS, "distro", "linux"))
		prev := "OS"
		n := int(seed%5) + 2
		if n < 2 {
			n = 2
		}
		for i := 0; i < n; i++ {
			id := "P" + string(rune('a'+i))
			b.Add(id, act(actions.OpInstallPackage, "name", id), prev)
			if seed>>(uint(i)%30)&1 == 0 {
				prev = id // extend the chain
			}
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		topo, err := g.TopoSort()
		if err != nil {
			return false
		}
		var actsInOrder []dag.Action
		for _, id := range topo {
			if id == dag.StartID || id == dag.FinishID {
				continue
			}
			node, _ := g.Node(id)
			actsInOrder = append(actsInOrder, node.Action)
		}
		k := int(cut) % (len(actsInOrder) + 1)
		r := Evaluate(g, actsInOrder[:k])
		if !r.OK {
			return false
		}
		return len(r.Matched)+len(r.Residual) == g.Len()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: matched set of a successful Evaluate is always
// ancestor-closed and a linear extension.
func TestMatchedSetInvariantsProperty(t *testing.T) {
	g := invigoGraph(t)
	prefixes := [][]dag.Action{
		nil,
		cachedABC()[:1],
		cachedABC()[:2],
		cachedABC(),
	}
	for _, p := range prefixes {
		r := Evaluate(g, p)
		if !r.OK {
			t.Fatalf("prefix of len %d rejected: %s", len(p), r.Reason)
		}
		if !g.IsLinearExtension(r.Matched) {
			t.Errorf("matched %v is not a linear extension", r.Matched)
		}
		set := map[string]bool{}
		for _, id := range r.Matched {
			set[id] = true
		}
		for _, id := range r.Matched {
			for anc := range g.Ancestors(id) {
				if anc != dag.StartID && !set[anc] {
					t.Errorf("matched set not ancestor-closed: %s missing %s", id, anc)
				}
			}
		}
	}
}
