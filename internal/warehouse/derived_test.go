package warehouse

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"vmplants/internal/actions"
	"vmplants/internal/dag"
)

func seedImage(t *testing.T, w *Warehouse, name string) *Image {
	t.Helper()
	im, err := BuildGolden(name, hw(), BackendVMware, history())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Publish(im); err != nil {
		t.Fatal(err)
	}
	return im
}

func derivedOf(t *testing.T, parent *Image, name string, extra ...string) *Image {
	t.Helper()
	performed := append([]dag.Action{}, parent.Performed...)
	for _, pkg := range extra {
		performed = append(performed, act(actions.OpInstallPackage, "name", pkg))
	}
	im, err := BuildDerived(name, parent, performed)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// Regression (Remove wedge bugfix): a removal retried after a partial
// delete — some state files already gone — must sweep the remaining
// files and unregister the image. The pre-fix code aborted on the first
// missing path, leaving the image permanently stuck: registered, but
// impossible to remove.
func TestRemoveRetriesAfterPartialDelete(t *testing.T) {
	w := newWarehouse()
	im := seedImage(t, w, "torn")

	// Simulate the first, interrupted removal: one state file is gone.
	if err := w.Volume().Delete(im.RedoPath); err != nil {
		t.Fatal(err)
	}
	if err := w.Remove("torn"); err != nil {
		t.Fatalf("retried removal failed: %v", err)
	}
	if files := w.Volume().List(); len(files) != 0 {
		t.Errorf("removal left %d files: %v", len(files), files)
	}
	if _, ok := w.Lookup("torn"); ok {
		t.Error("image still registered after removal")
	}
	if err := w.Remove("torn"); err == nil || !strings.Contains(err.Error(), "no image") {
		t.Errorf("second removal error = %v", err)
	}
}

func TestPublishDerivedSharesParentExtents(t *testing.T) {
	w := newWarehouse()
	parent := seedImage(t, w, "seed")
	seedBytes := w.BytesUsed()
	seedFiles := len(w.Volume().List())
	extentPhys := w.ExtentStatsNow().PhysicalBytes

	im := derivedOf(t, parent, "derived-a", "matlab")
	if err := w.PublishDerived(im, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if parent.Refs() != 1 {
		t.Errorf("parent refs = %d, want 1 (held by the derived image)", parent.Refs())
	}
	if got := w.DerivedCount(); got != 1 {
		t.Errorf("DerivedCount = %d", got)
	}
	// The checkpoint shares the parent's extents: it reads base blocks
	// through them and lays no extent files of its own.
	if len(im.ExtentPaths) != len(parent.ExtentPaths) {
		t.Errorf("derived extents %d, parent %d", len(im.ExtentPaths), len(parent.ExtentPaths))
	}
	for i, p := range im.ExtentPaths {
		if p != parent.ExtentPaths[i] {
			t.Errorf("extent %d: %q != parent's %q", i, p, parent.ExtentPaths[i])
		}
	}
	// Only config, redo, mem image and descriptor are new on the volume.
	if got := len(w.Volume().List()); got != seedFiles+4 {
		t.Errorf("derived publish laid %d files, want 4", got-seedFiles)
	}
	added := w.BytesUsed() - seedBytes
	if added != im.Bytes() || added <= 0 {
		t.Errorf("accounted %d bytes, image says %d", added, im.Bytes())
	}
	// ...and no new extent state: the parent's extents are shared, not
	// copied, so the content store's footprint is untouched.
	if st := w.ExtentStatsNow(); st.PhysicalBytes != extentPhys {
		t.Errorf("derived publish changed extent store physical bytes: %d -> %d",
			extentPhys, st.PhysicalBytes)
	}
	// Removal releases the parent reference and the accounting.
	if err := w.Remove("derived-a"); err != nil {
		t.Fatal(err)
	}
	if parent.Refs() != 0 {
		t.Errorf("parent refs = %d after removing the derived image", parent.Refs())
	}
	if w.BytesUsed() != seedBytes {
		t.Errorf("bytes used %d, want %d after removal", w.BytesUsed(), seedBytes)
	}
	if got := len(w.Volume().List()); got != seedFiles {
		t.Errorf("volume has %d files, want %d: parent extents must survive", got, seedFiles)
	}
}

func TestPublishDerivedValidation(t *testing.T) {
	w := newWarehouse()
	parent := seedImage(t, w, "seed")

	// Not marked derived.
	plain := derivedOf(t, parent, "plain", "matlab")
	plain.Derived = false
	if err := w.PublishDerived(plain, 0); err == nil {
		t.Error("accepted an image not marked derived")
	}
	// Unknown parent.
	orphan := derivedOf(t, parent, "orphan", "matlab")
	orphan.Parent = "no-such-seed"
	if err := w.PublishDerived(orphan, 0); err == nil {
		t.Error("accepted a derived image with no parent")
	}
	// Derived-of-derived is forbidden: checkpoints root at seeds.
	first := derivedOf(t, parent, "first", "matlab")
	if err := w.PublishDerived(first, 0); err != nil {
		t.Fatal(err)
	}
	second := derivedOf(t, parent, "second", "matlab", "octave")
	second.Parent = "first"
	if err := w.PublishDerived(second, 0); err == nil {
		t.Error("accepted a derived image rooted at another derived image")
	}
	// Seed-path Publish refuses derived images.
	stray := derivedOf(t, parent, "stray", "gnuplot")
	if err := w.Publish(stray); err == nil {
		t.Error("Publish accepted a derived image")
	}
}

func TestRetirementEvictsLowestUtility(t *testing.T) {
	w := newWarehouse()
	parent := seedImage(t, w, "seed")

	a := derivedOf(t, parent, "derived-a", "matlab")
	if err := w.PublishDerived(a, 1*time.Second); err != nil {
		t.Fatal(err)
	}
	b := derivedOf(t, parent, "derived-b", "octave")
	if err := w.PublishDerived(b, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	// a is the more useful image: two high-score uses vs one.
	w.NoteUse("derived-a", 3, 3*time.Second)
	w.NoteUse("derived-a", 3, 4*time.Second)
	w.NoteUse("derived-b", 3, 5*time.Second)

	// No room for a third derived image: the budget fits the current
	// residents plus 1 MB of slack (snapshot-chain overhead grows each
	// checkpoint slightly), so the next publish must evict exactly one.
	w.SetCapacity(w.BytesUsed() + 1<<20)
	c := derivedOf(t, parent, "derived-c", "gnuplot")
	if err := w.PublishDerived(c, 6*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, ok := w.Lookup("derived-b"); ok {
		t.Error("derived-b (lowest utility) survived")
	}
	if _, ok := w.Lookup("derived-a"); !ok {
		t.Error("derived-a (highest utility) was evicted")
	}
	if w.Retirements() != 1 {
		t.Errorf("retirements = %d", w.Retirements())
	}
	if w.BytesUsed() > w.Capacity() {
		t.Errorf("bytes used %d exceed capacity %d", w.BytesUsed(), w.Capacity())
	}
	// Seed is untouchable regardless of pressure.
	if _, ok := w.Lookup("seed"); !ok {
		t.Error("seed image was evicted")
	}
}

func TestRetirementBreaksScoreTiesTowardLRU(t *testing.T) {
	w := newWarehouse()
	parent := seedImage(t, w, "seed")
	a := derivedOf(t, parent, "derived-a", "matlab")
	if err := w.PublishDerived(a, 1*time.Second); err != nil {
		t.Fatal(err)
	}
	b := derivedOf(t, parent, "derived-b", "octave")
	if err := w.PublishDerived(b, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	// Equal scores; a used longer ago than b.
	w.NoteUse("derived-a", 2, 3*time.Second)
	w.NoteUse("derived-b", 2, 9*time.Second)

	w.SetCapacity(w.BytesUsed() + 1<<20)
	c := derivedOf(t, parent, "derived-c", "gnuplot")
	if err := w.PublishDerived(c, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, ok := w.Lookup("derived-a"); ok {
		t.Error("least-recently-used tie loser survived")
	}
	if _, ok := w.Lookup("derived-b"); !ok {
		t.Error("recently used image was evicted on a tie")
	}
}

func TestRetirementNeverEvictsReferencedImages(t *testing.T) {
	w := newWarehouse()
	parent := seedImage(t, w, "seed")
	a := derivedOf(t, parent, "derived-a", "matlab")
	if err := w.PublishDerived(a, 1*time.Second); err != nil {
		t.Fatal(err)
	}
	a.Ref() // a live clone of the derived image

	w.SetCapacity(w.BytesUsed())
	b := derivedOf(t, parent, "derived-b", "octave")
	err := w.PublishDerived(b, 2*time.Second)
	if err == nil {
		t.Fatal("publish succeeded with every derived image referenced")
	}
	if !strings.Contains(err.Error(), "referenced") {
		t.Errorf("error = %v", err)
	}
	if _, ok := w.Lookup("derived-a"); !ok {
		t.Error("referenced derived image was evicted")
	}
	// Refused publication must not leak state files.
	if _, ok := w.Lookup("derived-b"); ok {
		t.Error("refused image registered")
	}
}

// Regression (quarantined-use bugfix): NoteUse must not credit utility
// to a quarantined image — it is unservable, so a "use" recorded while
// it is out of service (a racing creation that bound just before the
// quarantine landed) would inflate its retirement score with work it
// never saved.
func TestNoteUseIgnoredDuringQuarantine(t *testing.T) {
	w := newWarehouse()
	parent := seedImage(t, w, "seed")
	a := derivedOf(t, parent, "derived-a", "matlab")
	if err := w.PublishDerived(a, 1*time.Second); err != nil {
		t.Fatal(err)
	}
	w.NoteUse("derived-a", 2, 2*time.Second)
	w.Quarantine("derived-a", "operator hold")
	w.NoteUse("derived-a", 5, 3*time.Second)
	if a.Uses() != 1 || a.Utility() != 2 {
		t.Errorf("uses=%d utility=%d; a use was credited during quarantine", a.Uses(), a.Utility())
	}
	// Back in service, uses count again.
	w.Unquarantine("derived-a")
	w.NoteUse("derived-a", 5, 4*time.Second)
	if a.Uses() != 2 || a.Utility() != 7 {
		t.Errorf("uses=%d utility=%d after unquarantine, want 2/7", a.Uses(), a.Utility())
	}
}

func TestDerivedNameIsHistoryFingerprint(t *testing.T) {
	h1 := history()
	h2 := append(append([]dag.Action{}, history()...), act(actions.OpInstallPackage, "name", "matlab"))

	a := DerivedName(BackendVMware, h1)
	if b := DerivedName(BackendVMware, h1); b != a {
		t.Errorf("same history, different names: %q %q", a, b)
	}
	if c := DerivedName(BackendVMware, h2); c == a {
		t.Errorf("different histories collide on %q", a)
	}
	if u := DerivedName(BackendUML, h1); u == a {
		t.Error("backend not part of the name")
	}
	if !strings.HasPrefix(a, "derived-"+BackendVMware+"-") {
		t.Errorf("name %q lacks the derived prefix", a)
	}
}

// List is served from a name slice register and unregister keep sorted,
// not from a sort per call: after every step of a random publish /
// retire / restart sequence it must equal the sorted keys of the catalog.
func TestListTracksCatalog(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		g := rand.New(rand.NewSource(seed))
		w := newWarehouse()
		w.SetJournal(testJournal(t))
		seeds := []*Image{seedImage(t, w, "seed-m"), seedImage(t, w, "seed-b")}
		for step := 0; step < 200; step++ {
			switch op := g.Intn(10); {
			case op < 5:
				name := fmt.Sprintf("img-%02d", g.Intn(40))
				if _, dup := w.Lookup(name); dup {
					continue
				}
				i := g.Intn(len(seeds))
				if _, live := w.Lookup(seeds[i].Name); !live {
					seeds[i] = seedImage(t, w, seeds[i].Name) // removed earlier: publish it again
					break
				}
				if err := w.PublishDerived(derivedOf(t, seeds[i], name, name), 0); err != nil {
					t.Fatal(err)
				}
			case op < 9:
				if names := w.List(); len(names) > 0 {
					// A seed with derived children refuses; either way
					// List must follow the catalog.
					_ = w.Remove(names[g.Intn(len(names))])
				}
			default:
				w.Restart()
			}
			want := make([]string, 0, len(w.images))
			for n := range w.images {
				want = append(want, n)
			}
			sort.Strings(want)
			if got := w.List(); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: List = %v, catalog %v", seed, step, got, want)
			}
		}
	}
}
