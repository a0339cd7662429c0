package workload

import (
	"fmt"
	"strings"
	"testing"

	"vmplants/internal/core"
	"vmplants/internal/dag"
	"vmplants/internal/match"
	"vmplants/internal/plant"
	"vmplants/internal/proto"
	"vmplants/internal/sim"
	"vmplants/internal/stats"
	"vmplants/internal/xmlwire"
)

func TestInVigoDAGMatchesFigure3(t *testing.T) {
	g, err := InVigoDAG("arijit", "00:50:56:00:00:01", "10.1.0.7")
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 9 {
		t.Errorf("nodes = %d, want 9 (A..I)", g.Len())
	}
	// The golden history matches as the A,B,C prefix, residual D E F G I H.
	r := match.Evaluate(g, InVigoGoldenHistory())
	if !r.OK || len(r.Matched) != 3 {
		t.Fatalf("golden history match: %+v", r)
	}
	want := []string{"D", "E", "F", "G", "I", "H"}
	for i, id := range want {
		if r.Residual[i] != id {
			t.Fatalf("residual = %v, want %v", r.Residual, want)
		}
	}
	// G (configure VNC) must precede H (start VNC); I is unordered wrt both.
	if !g.Before("G", "H") || g.Before("I", "H") || g.Before("H", "I") {
		t.Error("Figure 3 ordering constraints wrong")
	}
}

func TestGenericDAGIsGoldenExactCover(t *testing.T) {
	g, err := GenericDAG()
	if err != nil {
		t.Fatal(err)
	}
	r := match.TemplateEvaluate(g, InVigoGoldenHistory())
	if !r.OK || len(r.Residual) != 0 {
		t.Errorf("generic DAG template result: %+v", r)
	}
}

func TestDeploymentDefaults(t *testing.T) {
	d, err := NewDeployment(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Plants) != 8 {
		t.Errorf("%d plants", len(d.Plants))
	}
	if got := d.Warehouse.List(); len(got) != 3 {
		t.Errorf("goldens = %v", got)
	}
	if _, ok := d.Warehouse.Lookup(GoldenName(64, "vmware")); !ok {
		t.Error("64MB golden missing")
	}
}

func TestCreationSeriesSmoke(t *testing.T) {
	d, err := NewDeployment(Options{Seed: 2, GoldenSizesMB: []int{64}})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := d.runCreationSeries(10, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 || succeeded(recs) != 10 {
		t.Fatalf("records: %d, ok: %d", len(recs), succeeded(recs))
	}
	sum := stats.Summarize(createTimes(recs))
	// The paper's envelope: creations in 17–85 s.
	if sum.Min < 10 || sum.Max > 100 {
		t.Errorf("creation times out of envelope: %s", sum)
	}
	// Memory-based bidding spreads VMs across plants.
	plants := map[string]bool{}
	for _, r := range recs {
		plants[r.Plant] = true
	}
	if len(plants) < 4 {
		t.Errorf("only %d plants used", len(plants))
	}
}

func TestCreationSeriesDeterministic(t *testing.T) {
	run := func() []creationRecord {
		d, err := NewDeployment(Options{Seed: 3, GoldenSizesMB: []int{32}})
		if err != nil {
			t.Fatal(err)
		}
		recs, err := d.runCreationSeries(6, 32)
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestFailureInjectionSurfacesToClient(t *testing.T) {
	d, err := NewDeployment(Options{
		Seed:          4,
		GoldenSizesMB: []int{32},
		PlantConfig:   plant.Config{FailProb: map[string]float64{"configure-network": 1.0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := d.runCreationSeries(3, 32)
	if err != nil {
		t.Fatal(err)
	}
	if succeeded(recs) != 0 {
		t.Errorf("%d succeeded with certain failure", succeeded(recs))
	}
	for _, r := range recs {
		if r.Err == "" {
			t.Error("failed record without error text")
		}
	}
}

func TestWorkspaceSpecValid(t *testing.T) {
	d, err := NewDeployment(Options{Seed: 1, GoldenSizesMB: []int{64}})
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range []int{1, 250, 62500} {
		s, err := d.WorkspaceSpec(seq, 64)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("seq %d: %v", seq, err)
		}
	}
}

func TestDeploymentRunReportsStranded(t *testing.T) {
	d, err := NewDeployment(Options{Seed: 1, GoldenSizesMB: []int{32}, Plants: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(func(p *sim.Proc) error { p.Wait(-1); return nil }); err == nil {
		t.Error("stranded process not reported")
	}
}

// A drain of a plant whose VM no client ever collects never ends: the
// run fails at its horizon, naming the drain, instead of spinning.
func TestDeploymentRunFailsAtItsHorizon(t *testing.T) {
	d, err := NewDeployment(Options{Seed: 1, GoldenSizesMB: []int{32}, Plants: 2})
	if err != nil {
		t.Fatal(err)
	}
	drain := ""
	err = d.Run(func(p *sim.Proc) error {
		spec, err := d.WorkspaceSpec(1, 32)
		if err != nil {
			return err
		}
		id, _, err := d.Shop.Create(p, spec)
		if err != nil {
			return err
		}
		route := d.Shop.RouteOf(id)
		drain = "drain/" + route
		p.Kernel().Spawn(drain, func(dp *sim.Proc) { _ = d.Shop.DrainAndRetire(dp, route) })
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "horizon") || !strings.Contains(err.Error(), drain) {
		t.Errorf("Run = %v, want the horizon failure naming %s", err, drain)
	}
}

func TestVMIDsRoundTripCore(t *testing.T) {
	d, _ := NewDeployment(Options{Seed: 1, GoldenSizesMB: []int{32}, Plants: 1})
	recs, err := d.runCreationSeries(1, 32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.ParseVMID(string(recs[0].VMID)); err != nil {
		t.Errorf("minted VMID invalid: %v", err)
	}
}

func TestGoldenHistoryIsLinearExtensionOfDAG(t *testing.T) {
	g, _ := InVigoDAG("u", "m", "10.0.0.1")
	ids := []string{"A", "B", "C"}
	if !g.IsLinearExtension(ids) {
		t.Error("golden history order violates the DAG")
	}
}

// Property: any topological prefix of any random DAG passes all three
// matching tests, and matched+residual partition the action set.
func TestRandomDAGTopoPrefixAlwaysMatches(t *testing.T) {
	rng := sim.NewRNG(99)
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(12)
		g, err := RandomDAG(rng, n)
		if err != nil {
			t.Fatal(err)
		}
		k := rng.Intn(g.Len() + 1)
		perf, err := TopoPrefixActions(g, k)
		if err != nil {
			t.Fatal(err)
		}
		r := match.Evaluate(g, perf)
		if !r.OK {
			t.Fatalf("trial %d: prefix of %d rejected: %s (%s)", trial, k, r.Failed, r.Reason)
		}
		if len(r.Matched)+len(r.Residual) != g.Len() {
			t.Fatalf("trial %d: %d matched + %d residual ≠ %d nodes",
				trial, len(r.Matched), len(r.Residual), g.Len())
		}
		// Shuffling the prefix out of order must never crash, and if it
		// violates the partial order the matcher says so.
		if k >= 2 {
			perm := rng.Perm(k)
			shuffled := make([]dagActionAlias, 0, k)
			_ = shuffled
			sh := make([]dag.Action, k)
			for i, j := range perm {
				sh[i] = perf[j]
			}
			r2 := match.Evaluate(g, sh)
			if r2.OK && !g.IsLinearExtension(r2.Matched) {
				t.Fatalf("trial %d: matcher accepted a non-linear-extension history", trial)
			}
		}
	}
}

type dagActionAlias = dag.Action

// Concurrent clients: the paper's runs are sequential, but the system
// must stay correct when several clients create at once — the copies
// share the NFS server's bandwidth, so everything succeeds, just slower
// per request.
func TestConcurrentClientsAllSucceed(t *testing.T) {
	d, err := NewDeployment(Options{Seed: 31, GoldenSizesMB: []int{64}, Plants: 4})
	if err != nil {
		t.Fatal(err)
	}
	const clients, each = 4, 3
	results := make([][]creationRecord, clients)
	for c := 0; c < clients; c++ {
		c := c
		d.Kernel.Spawn(fmt.Sprintf("client%d", c), func(p *sim.Proc) {
			for i := 0; i < each; i++ {
				spec, err := d.WorkspaceSpec(c*100+i, 64)
				if err != nil {
					p.Failf("%v", err)
				}
				spec.Domain = fmt.Sprintf("domain%d.edu", c)
				start := p.Now()
				_, ad, err := d.Shop.Create(p, spec)
				rec := creationRecord{Seq: i, CreateSecs: (p.Now() - start).Seconds()}
				if err == nil {
					rec.OK = true
					rec.Plant = ad.GetString(core.AttrPlant, "")
				} else {
					rec.Err = err.Error()
				}
				results[c] = append(results[c], rec)
			}
		})
	}
	res := d.Kernel.Run(0)
	if len(res.Stranded) != 0 {
		t.Fatalf("stranded: %v", res.Stranded)
	}
	for c, recs := range results {
		if succeeded(recs) != each {
			t.Errorf("client %d: %d/%d succeeded: %+v", c, succeeded(recs), each, recs)
		}
	}
}

// Chaos: a plant dies mid-series; the shop routes around it and the
// series keeps succeeding.
func TestPlantDeathMidSeries(t *testing.T) {
	d, err := NewDeployment(Options{Seed: 32, GoldenSizesMB: []int{64}, Plants: 3})
	if err != nil {
		t.Fatal(err)
	}
	var ok, failed int
	err = d.Run(func(p *sim.Proc) error {
		for i := 1; i <= 9; i++ {
			if i == 4 {
				d.Handles[0].Down = true // kill one plant
			}
			spec, err := d.WorkspaceSpec(i, 64)
			if err != nil {
				p.Failf("%v", err)
			}
			if _, _, err := d.Shop.Create(p, spec); err != nil {
				failed++
			} else {
				ok++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ok != 9 {
		t.Errorf("%d/9 creations survived a plant death (failed %d)", ok, failed)
	}
	// VMs on the dead plant are unreachable, but the shop still serves
	// queries for VMs on live plants.
}

// Bugfix pin: Builder.Build wired edges in the iteration order of a
// map, so the successor order under a fan-out node (F → J, G, I) — and
// with it Edges(), the <edge> order on the wire and in the shop's
// intent record — differed between two builds of one graph: 200 builds
// gave six encodings. Edges are now wired in declaration order. No
// plan, fingerprint or golden depended on the old order: TopoSort
// breaks ties by node insertion position, never by edge order.
func TestUserEnvDAGHasOneEncoding(t *testing.T) {
	var first []byte
	for i := 0; i < 200; i++ {
		g, err := InVigoUserEnvDAG("arijit", "00:50:56:00:00:01", "10.1.0.7")
		if err != nil {
			t.Fatal(err)
		}
		enc := g.AppendXML(nil)
		if first == nil {
			first = enc
		} else if string(enc) != string(first) {
			t.Fatalf("build %d encodes differently\n got: %s\nwant: %s", i, enc, first)
		}
	}
	g, _ := InVigoUserEnvDAG("arijit", "00:50:56:00:00:01", "10.1.0.7")
	if got := fmt.Sprint(g.Successors("F")); got != "[J G I]" {
		t.Errorf("successors of F = %s, want declaration order [J G I]", got)
	}
}

// A create request carrying the In-VIGO DAG decodes with one string
// for all the DAG's IDs, operations and parameters, one []Node and one
// array for the graph's ID table and edge chains (it cost 142
// allocations when each value was its own, 66 while the graph kept
// ID-keyed maps).
func TestInVigoCreateRequestDecodeAllocations(t *testing.T) {
	spec := inVigoSpec(t)
	doc, err := proto.Marshal(&proto.Message{Kind: proto.KindCreateRequest, Create: proto.FromSpec(spec, "secret")})
	if err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(100, func() {
		if _, err := proto.Unmarshal(doc); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations", n)
	if n > 50 {
		t.Errorf("decoding an In-VIGO create request: %.0f allocations, want ≤ 50", n)
	}
}

func inVigoSpec(t *testing.T) *core.Spec {
	t.Helper()
	g, err := InVigoDAG("user0000001", "00:50:56:00:00:01", "10.2.0.1")
	if err != nil {
		t.Fatal(err)
	}
	return &core.Spec{Name: "workspace-1", Hardware: core.HardwareSpec{Arch: "x86", MemoryMB: 64, DiskMB: 2048},
		Domain: "ufl.edu", Backend: "vmware", Graph: g}
}

// The In-VIGO DAG alone: built by its Builder (108 allocations while
// the graph kept ID-keyed maps, 18 of them the actions' parameter maps)
// and decoded from its wire form (53).
func TestInVigoDAGAllocationCeilings(t *testing.T) {
	build := testing.AllocsPerRun(100, func() {
		if _, err := InVigoDAG("user0000001", "00:50:56:00:00:01", "10.2.0.1"); err != nil {
			t.Fatal(err)
		}
	})
	doc := inVigoSpec(t).Graph.AppendXML(nil)
	decode := testing.AllocsPerRun(100, func() {
		s := xmlwire.NewScanner(doc)
		if err := s.Open("dag"); err != nil {
			t.Fatal(err)
		}
		var g dag.Graph
		if err := g.DecodeXML(s); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("build %.0f, decode %.0f allocations", build, decode)
	if build > 60 {
		t.Errorf("building the In-VIGO DAG: %.0f allocations, want ≤ 60", build)
	}
	if decode > 36 {
		t.Errorf("decoding the In-VIGO DAG: %.0f allocations, want ≤ 36", decode)
	}
}

// raceEnabled reports a build with the race detector (race_test.go).
var raceEnabled bool

// The shop journals each creation's spec in its intent record, rendered
// in a pooled buffer: the document string and at most two more
// allocations (11 when it was rendered from nil and then copied).
func TestIntentSpecAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	spec := inVigoSpec(t)
	n := testing.AllocsPerRun(100, func() { _ = proto.MarshalCreateRequest(proto.FromSpec(spec, "")) })
	t.Logf("%.0f allocations", n)
	if n > 3 {
		t.Errorf("rendering an intent's spec: %.0f allocations, want ≤ 3", n)
	}
}

// Compiling the ten-node request for matching costs at most 14
// allocations: the index reads the graph's positions and edge chains
// as they are (it cost about 20 while the graph kept ID-keyed maps, and
// one match.Best over three candidates cost 78 before requests were
// compiled).
func TestUserEnvDAGIndexAllocationCeiling(t *testing.T) {
	g, err := InVigoUserEnvDAG("arijit", "00:50:56:00:00:01", "10.1.0.7")
	if err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(50, func() {
		// A clone starts without an index; the matcher reads the
		// ancestor sets, which the index derives on first use.
		g.Clone().Index().Ancestors(dag.FinishPos)
	})
	clone := testing.AllocsPerRun(50, func() { g.Clone() })
	t.Logf("index: %.0f allocations (clone %.0f)", n-clone, clone)
	if n-clone > 14 {
		t.Errorf("building the index: %.0f allocations, want ≤ 14", n-clone)
	}
}
