package warehouse_test

import (
	"reflect"
	"slices"
	"testing"

	"vmplants/internal/actions"
	"vmplants/internal/cluster"
	"vmplants/internal/core"
	"vmplants/internal/dag"
	"vmplants/internal/journal"
	"vmplants/internal/match"
	"vmplants/internal/plant"
	"vmplants/internal/sim"
	"vmplants/internal/storage"
	"vmplants/internal/warehouse"
)

// TestCandidatesFollowTheCatalog drives every write that changes what a
// bid sees — publish, derived publish-back, capacity retirement,
// quarantine by scrub detection and by an operator, repair,
// and restart with and without a journal — and checks after each one
// that the next Candidates call and the next plant resource ad's
// GoldenImages agree with the catalog read afresh, while the slices and
// the list a reader took before the write stay as they were. Candidates
// and GoldenImages are shared views, built once per change; this is
// the test that fails when a write forgets to drop them.
func TestCandidatesFollowTheCatalog(t *testing.T) {
	k := sim.NewKernel()
	tb := cluster.NewTestbed(k, 1, cluster.DefaultParams(), 5)
	w := warehouse.New(tb.Warehouse)
	pl := plant.New("node00", tb.Nodes[0], w, plant.Config{})
	backends := []string{"", warehouse.BackendVMware, warehouse.BackendUML}

	act := func(op, k, v string) dag.Action {
		tgt, _ := actions.DefaultTarget(op)
		return dag.Action{Op: op, Target: tgt, Params: map[string]string{k: v}}
	}
	base := []dag.Action{act(actions.OpInstallOS, "distro", "mandrake-8.1")}
	images := map[string]*warehouse.Image{}
	seed := func(name, backend string, diskMB int) {
		im, err := warehouse.BuildGolden(name, core.HardwareSpec{Arch: "x86", MemoryMB: 64, DiskMB: diskMB}, backend, base)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Publish(im); err != nil {
			t.Fatal(err)
		}
		images[name] = im
	}
	derive := func(name, pkg string) {
		parent, _ := w.Lookup("s1")
		im, err := warehouse.BuildDerived(name, parent, append(slices.Clone(base), act(actions.OpInstallPackage, "name", pkg)))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.PublishDerived(im, 0); err != nil {
			t.Fatal(err)
		}
	}
	scrub := func() {
		k.Spawn("scrub", w.ScrubPass)
		k.Run(0)
	}

	// fresh is the matcher's view of one backend as the catalog says it
	// should be, read from scratch.
	fresh := func(backend string) []match.Candidate {
		var out []match.Candidate
		for _, n := range w.List() {
			im, _ := w.Lookup(n)
			if (backend == "" || im.Backend == backend) && !w.IsQuarantined(n) {
				out = append(out, im.Candidate())
			}
		}
		return out
	}
	same := func(a, b []match.Candidate) bool {
		return len(a) == 0 && len(b) == 0 || reflect.DeepEqual(a, b)
	}
	step := func(what string, changes bool, change func()) {
		t.Helper()
		held := map[string][]match.Candidate{}
		kept := map[string][]match.Candidate{}
		for _, b := range backends {
			held[b] = w.Candidates(b)
			kept[b] = slices.Clone(held[b])
		}
		ad := pl.ResourceAd()
		names := ad.GetStrings("GoldenImages")

		change()

		for _, b := range backends {
			if got, want := w.Candidates(b), fresh(b); !same(got, want) {
				t.Errorf("%s: Candidates(%q) = %v, want %v", what, b, ids(got), ids(want))
			}
			if !reflect.DeepEqual(held[b], kept[b]) {
				t.Errorf("%s: a Candidates(%q) slice taken before the change changed: %v, was %v", what, b, ids(held[b]), ids(kept[b]))
			}
		}
		if got, want := pl.ResourceAd().GetStrings("GoldenImages"), w.List(); !slices.Equal(got, want) {
			t.Errorf("%s: resource ad GoldenImages = %v, want %v", what, got, want)
		}
		if got := ad.GetStrings("GoldenImages"); !slices.Equal(got, names) {
			t.Errorf("%s: an ad built before the change now lists %v, was %v", what, got, names)
		}
		if moved := !same(held[""], w.Candidates("")); moved != changes {
			t.Errorf("%s: candidates changed = %v, want %v", what, moved, changes)
		}
	}

	step("publish", true, func() { seed("s1", warehouse.BackendVMware, 2048) })
	step("publish another backend", true, func() { seed("u1", warehouse.BackendUML, 2048) })
	step("publish a seed of its own extents", true, func() { seed("s2", warehouse.BackendVMware, 4096) })
	step("derived publish-back", true, func() { derive("d1", "gcc") })
	step("capacity retirement", true, func() {
		// Room for d2 only once d1 is gone.
		w.SetCapacity(w.BytesUsed() + 1<<20)
		derive("d2", "gdb")
		if _, live := w.Lookup("d1"); live || w.Retirements() != 1 {
			t.Fatalf("d1 not retired for d2 (%d retirements)", w.Retirements())
		}
	})
	step("quarantine by scrub detection", true, func() {
		// No replica yet: a seed's corrupt extent cannot be repaired, so
		// the pass leaves it quarantined.
		p := images["s2"].ExtentPaths[0]
		sum, _ := w.Volume().Checksum(p)
		if err := w.Volume().SetChecksum(p, ^sum); err != nil {
			t.Fatal(err)
		}
		scrub()
		if !w.IsQuarantined("s2") {
			t.Fatal("scrub did not quarantine s2")
		}
	})
	step("quarantine of a derived image by an operator", true, func() {
		if !w.Quarantine("d2", "operator") {
			t.Fatal("d2 not newly quarantined")
		}
	})
	step("unquarantine after repair", true, func() {
		w.SetReplica(storage.NewVolume("replica", storage.NewDevice("replica-disk", 40<<20, 0)))
		scrub()
		if q := w.Quarantined(); len(q) != 0 {
			t.Fatalf("still quarantined after repair: %v", q)
		}
	})
	step("quarantine by an operator", true, func() { w.Quarantine("s1", "operator") })
	step("restart without a journal", true, func() {
		// The journal-less restart forgets the quarantine set.
		w.Restart()
	})
	w.SetJournal(journal.Open(storage.NewVolume("whlog", storage.NewDevice("whlog-disk", 8<<20, 0)), "journal/warehouse"))
	step("quarantine before a journaled restart", true, func() { w.Quarantine("s1", "operator") })
	step("restart with a journal", false, func() {
		if st := w.Restart(); st.QuarantineRestored != 1 {
			t.Fatalf("restart %+v, want the quarantine restored", st)
		}
	})
}

func ids(cs []match.Candidate) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.ID
	}
	return out
}
