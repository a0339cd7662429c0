package warehouse

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"vmplants/internal/core"
	"vmplants/internal/fault"
	"vmplants/internal/sim"
	"vmplants/internal/storage"
	"vmplants/internal/telemetry"
)

func newReplica() *storage.Volume {
	return storage.NewVolume("replica", storage.NewDevice("replica-disk", 40<<20, 0))
}

func TestPublishRecordsChecksums(t *testing.T) {
	w := newWarehouse()
	im := seedImage(t, w, "sums")

	// Every artifact — config, redo, mem image, extents, descriptor —
	// carries a checksum, recorded identically in the image and in the
	// volume namespace. Extent slots are content-addressed, so
	// byte-identical slots share one canonical path (and one sum entry).
	distinct := make(map[string]bool)
	for _, p := range im.ExtentPaths {
		distinct[p] = true
	}
	want := 3 + len(distinct) + 1
	if len(im.Sums) != want {
		t.Fatalf("%d checksummed artifacts, want %d: %v", len(im.Sums), want, im.sumPaths())
	}
	for _, p := range im.sumPaths() {
		got, ok := w.vol.Checksum(p)
		if !ok {
			t.Fatalf("volume has no checksum for %s", p)
		}
		if got != im.Sums[p] {
			t.Errorf("%s: volume sum %016x != image sum %016x", p, got, im.Sums[p])
		}
		if got == 0 {
			t.Errorf("%s: zero checksum", p)
		}
	}
	if bad := w.badArtifacts(im); len(bad) != 0 {
		t.Errorf("fresh publish fails verification: %v", bad)
	}

	// The descriptor's integrity section lists every artifact but
	// itself (it cannot record its own sum).
	d := im.Descriptor()
	if len(d.Integrity) != want-1 {
		t.Errorf("descriptor integrity lists %d artifacts, want %d", len(d.Integrity), want-1)
	}
	for _, a := range d.Integrity {
		if a.Path == im.descriptorPath() {
			t.Errorf("descriptor records its own checksum")
		}
		if a.Sum == "" || a.Sum == "0000000000000000" {
			t.Errorf("descriptor sum for %s is empty", a.Path)
		}
	}
}

func TestDerivedSharesParentExtentSums(t *testing.T) {
	w := newWarehouse()
	parent := seedImage(t, w, "parent")
	im := derivedOf(t, parent, "child", "gcc")
	if err := w.PublishDerived(im, 0); err != nil {
		t.Fatal(err)
	}
	for _, p := range im.ExtentPaths {
		if im.Sums[p] != parent.Sums[p] {
			t.Errorf("%s: derived sum %016x != parent sum %016x", p, im.Sums[p], parent.Sums[p])
		}
	}
	if bad := w.badArtifacts(im); len(bad) != 0 {
		t.Errorf("fresh derived publish fails verification: %v", bad)
	}
}

func TestOpenCloneDetectsCorruptionAndQuarantines(t *testing.T) {
	w := newWarehouse()
	hub := telemetry.New()
	w.SetTelemetry(hub)
	im := seedImage(t, w, "rotten")

	w.corruptPath(im.ExtentPaths[0])
	_, err := w.OpenClone("rotten")
	if err == nil {
		t.Fatal("open of corrupt image succeeded")
	}
	if !errors.Is(err, core.ErrTransient) {
		t.Errorf("corruption error is not transient: %v", err)
	}
	if !w.IsQuarantined("rotten") {
		t.Error("detected corruption did not quarantine the image")
	}
	if reason, _ := w.QuarantineReason("rotten"); !strings.Contains(reason, "checksum mismatch") {
		t.Errorf("quarantine reason = %q", reason)
	}
	// No new matches bind to quarantined state.
	for _, c := range w.Candidates("") {
		if c.ID == "rotten" {
			t.Error("quarantined image still offered to the matcher")
		}
	}
	stats := w.ScrubStatsNow()
	if stats.Corruptions != 1 || stats.Quarantines != 1 || stats.InQuarantine != 1 {
		t.Errorf("stats = %+v", stats)
	}
}

// Satellite: a quarantined image must never be served from the hot
// clone cache — quarantine drops the cached context, refuses new opens,
// and a later repair forces a fresh verified fill.
func TestQuarantineInvalidatesHotCloneCache(t *testing.T) {
	w := newWarehouse()
	hub := telemetry.New()
	w.SetTelemetry(hub)
	seedImage(t, w, "hot")

	if _, err := w.OpenClone("hot"); err != nil { // fill
		t.Fatal(err)
	}
	if _, err := w.OpenClone("hot"); err != nil { // hit
		t.Fatal(err)
	}
	if hits, misses := w.CacheStats(); hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", hits, misses)
	}

	if !w.Quarantine("hot", "test") {
		t.Fatal("Quarantine returned false")
	}
	if keys := w.CacheKeys(); len(keys) != 0 {
		t.Fatalf("cache still holds %v after quarantine", keys)
	}
	if _, err := w.OpenClone("hot"); !errors.Is(err, core.ErrTransient) {
		t.Fatalf("open of quarantined image: %v, want transient refusal", err)
	}
	if hits, _ := w.CacheStats(); hits != 1 {
		t.Error("quarantined image was served from the clone cache")
	}

	w.Unquarantine("hot")
	if _, err := w.OpenClone("hot"); err != nil {
		t.Fatalf("open after unquarantine: %v", err)
	}
	// The post-repair open re-verified on a cache miss, not a stale hit.
	if hits, misses := w.CacheStats(); hits != 1 || misses != 2 {
		t.Errorf("hits=%d misses=%d after unquarantine, want 1/2", hits, misses)
	}
}

func TestCorruptSeedExtentQuarantinesSharingDerived(t *testing.T) {
	w := newWarehouse()
	parent := seedImage(t, w, "seed")
	im := derivedOf(t, parent, "leaf", "emacs")
	if err := w.PublishDerived(im, 0); err != nil {
		t.Fatal(err)
	}

	// The derived image's clone read trips over the corrupted shared
	// extent; detection must pull every image whose recorded state
	// includes that extent — the parent too.
	w.corruptPath(parent.ExtentPaths[0])
	if _, err := w.OpenClone("leaf"); !errors.Is(err, core.ErrTransient) {
		t.Fatalf("open over corrupt shared extent: %v", err)
	}
	if !w.IsQuarantined("leaf") || !w.IsQuarantined("seed") {
		t.Errorf("quarantined = %v, want both leaf and seed", w.Quarantined())
	}
}

func TestVerifyCloneFailsAcrossEpochChange(t *testing.T) {
	w := newWarehouse()
	seedImage(t, w, "epoch")
	ctx, err := w.OpenClone("epoch")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.VerifyClone(ctx); err != nil {
		t.Fatalf("clean context failed verification: %v", err)
	}

	// A quarantine/repair cycle lands while the clone's state copy is
	// in flight: the context's epoch is stale even though the image is
	// back in service, and the clone must fail over, not resume.
	w.Quarantine("epoch", "test")
	w.Unquarantine("epoch")
	if err := w.VerifyClone(ctx); !errors.Is(err, core.ErrTransient) {
		t.Fatalf("stale-epoch context verified: %v", err)
	}

	ctx2, err := w.OpenClone("epoch")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Remove("epoch"); err != nil {
		t.Fatal(err)
	}
	if err := w.VerifyClone(ctx2); !errors.Is(err, core.ErrTransient) {
		t.Fatalf("context for removed image verified: %v", err)
	}
}

func TestTornWritePublishDetectedOnNextOpen(t *testing.T) {
	w := newWarehouse()
	reg := fault.NewRegistry(1)
	reg.SetProb("warehouse", fault.TornWrite, "publish", 1)
	w.SetFaults(reg)

	im := seedImage(t, w, "torn")
	// The publish reported success; the damage is latent.
	if w.IsQuarantined("torn") {
		t.Fatal("torn write quarantined at publish time; it must be latent")
	}
	if bad := w.badArtifacts(im); len(bad) != 1 || bad[0] != im.RedoPath {
		t.Fatalf("badArtifacts = %v, want the redo log", bad)
	}
	if _, err := w.OpenClone("torn"); !errors.Is(err, core.ErrTransient) {
		t.Fatalf("open of torn publication: %v", err)
	}
	if !w.IsQuarantined("torn") {
		t.Error("torn write not quarantined on first verifying read")
	}
}

func TestScrubRepairsSeedFromReplica(t *testing.T) {
	w := newWarehouse()
	hub := telemetry.New()
	w.SetTelemetry(hub)
	im := seedImage(t, w, "healme")
	w.SetReplica(newReplica())

	w.corruptPath(im.ExtentPaths[0])
	k := sim.NewKernel()
	k.Spawn("scrub", func(p *sim.Proc) {
		w.ScrubPass(p) // detects, quarantines, and repairs in one cycle
	})
	k.Run(0)

	if w.IsQuarantined("healme") {
		reason, _ := w.QuarantineReason("healme")
		t.Fatalf("image still quarantined after repair: %s", reason)
	}
	if bad := w.badArtifacts(im); len(bad) != 0 {
		t.Errorf("artifacts still bad after repair: %v", bad)
	}
	stats := w.ScrubStatsNow()
	if stats.Repairs != 1 || stats.RepairBytes == 0 {
		t.Errorf("stats = %+v, want one repair with bytes", stats)
	}
	if stats.Retirements != 0 {
		t.Error("seed repair retired something")
	}
}

func TestScrubRepairsDerivedByReplay(t *testing.T) {
	w := newWarehouse()
	hub := telemetry.New()
	w.SetTelemetry(hub)
	parent := seedImage(t, w, "base")
	im := derivedOf(t, parent, "replayable", "gdb")
	if err := w.PublishDerived(im, 0); err != nil {
		t.Fatal(err)
	}

	// Corrupt the derived image's own redo log: repair re-materializes
	// it by replaying the action history against the healthy parent —
	// no replica needed.
	w.corruptPath(im.RedoPath)
	k := sim.NewKernel()
	k.Spawn("scrub", func(p *sim.Proc) {
		w.ScrubPass(p)
	})
	k.Run(0)

	if w.IsQuarantined("replayable") {
		t.Fatal("derived image still quarantined after replay repair")
	}
	if bad := w.badArtifacts(im); len(bad) != 0 {
		t.Errorf("artifacts still bad after replay repair: %v", bad)
	}
	if stats := w.ScrubStatsNow(); stats.Repairs != 1 {
		t.Errorf("stats = %+v, want one repair", stats)
	}
}

func TestScrubRetiresUnrepairableDerivedNeverSeeds(t *testing.T) {
	w := newWarehouse()
	hub := telemetry.New()
	w.SetTelemetry(hub)
	parent := seedImage(t, w, "sick")
	im := derivedOf(t, parent, "doomed", "perl")
	if err := w.PublishDerived(im, 0); err != nil {
		t.Fatal(err)
	}

	// No replica: the corrupted seed extent is unrepairable, and the
	// derived image sharing it cannot heal either (its parent stays
	// quarantined). The scrubber must retire the derived image after
	// the repair limit and leave the seed quarantined but registered.
	w.corruptPath(parent.ExtentPaths[0])
	k := sim.NewKernel()
	k.Spawn("scrub", func(p *sim.Proc) {
		for i := 0; i < DefaultRepairAttempts+1; i++ {
			w.ScrubPass(p)
		}
	})
	k.Run(0)

	if _, ok := w.Lookup("doomed"); ok {
		t.Error("unrepairable derived image was not retired")
	}
	if _, ok := w.Lookup("sick"); !ok {
		t.Fatal("seed image was retired by the scrubber")
	}
	if !w.IsQuarantined("sick") {
		t.Error("unrepairable seed left quarantine without being healed")
	}
	stats := w.ScrubStatsNow()
	if stats.Retirements != 1 {
		t.Errorf("scrub retirements = %d, want 1", stats.Retirements)
	}
}

// Regression (replica-leak bugfix): removing a seed image must sweep
// the mirrored extent copies SetReplica/mirror laid down on the replica
// volume. The pre-fix unregister deleted from the primary volume only,
// leaking every removed seed's extents on the replica forever.
func TestRemoveSeedCleansReplicaMirror(t *testing.T) {
	w := newWarehouse()
	replica := newReplica()
	w.SetReplica(replica)
	im := seedImage(t, w, "mirrored")
	for _, p := range im.ExtentPaths {
		if !replica.Exists(p) {
			t.Fatalf("extent %s not mirrored at publish", p)
		}
	}
	paths := append([]string(nil), im.ExtentPaths...)
	if err := w.Remove("mirrored"); err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if replica.Exists(p) {
			t.Errorf("replica still holds mirrored extent %s after seed removal", p)
		}
	}
	if files := replica.List(); len(files) != 0 {
		t.Errorf("replica leaked %d files after removal: %v", len(files), files)
	}
}

// Regression (quarantined-victim bugfix): capacity retirement must not
// evict a quarantined derived image while the scrubber is mid-repair on
// it — quarantined images leave through the scrubber's repair-limit
// path, not capacity pressure. The pre-fix retireOne picked victims by
// utility alone, and a quarantined image accrues none, making it the
// natural (and wrong) victim.
func TestRetirementSkipsQuarantinedVictims(t *testing.T) {
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
	// derived-a is the lowest-utility image — but it is quarantined,
	// mid-repair. The healthy derived-b must be the victim instead.
	w.NoteUse("derived-b", 3, 3*time.Second)
	w.Quarantine("derived-a", "scrub: checksum mismatch (repair pending)")

	w.SetCapacity(w.BytesUsed() + 1<<20)
	c := derivedOf(t, parent, "derived-c", "gnuplot")
	if err := w.PublishDerived(c, 4*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, ok := w.Lookup("derived-a"); !ok {
		t.Error("quarantined derived-a was evicted by capacity pressure mid-repair")
	}
	if _, ok := w.Lookup("derived-b"); ok {
		t.Error("healthy derived-b survived while the quarantined image was evicted")
	}
	if !w.IsQuarantined("derived-a") {
		t.Error("derived-a left quarantine without being repaired")
	}
}

// Satellite: Remove racing the scrubber. The scrub pass sleeps in
// virtual time while charging the deep read, so images can be removed —
// by an operator or by capacity retirement — under it. The pass must
// neither resurrect removed state nor double-book counters.
func TestScrubPassSurvivesConcurrentRemove(t *testing.T) {
	w := newWarehouse()
	hub := telemetry.New()
	w.SetTelemetry(hub)
	// Two independent seeds: the pass scrubs "a" (seconds of virtual
	// time at 11 MB/s) while another proc removes "b", then removes a
	// quarantined "a" mid-repair-wait.
	seedImage(t, w, "a")
	seedImage(t, w, "b")

	k := sim.NewKernel()
	k.Spawn("scrub", func(p *sim.Proc) {
		w.ScrubPass(p)
		w.ScrubPass(p)
	})
	k.Spawn("remove", func(p *sim.Proc) {
		p.Sleep(10 * time.Millisecond) // mid-deep-read of the first pass
		if err := w.Remove("b"); err != nil {
			t.Errorf("Remove(b): %v", err)
		}
		w.Quarantine("a", "operator hold")
		p.Sleep(10 * time.Millisecond)
		if err := w.Remove("a"); err != nil {
			t.Errorf("Remove(a): %v", err)
		}
	})
	res := k.Run(0)
	if len(res.Stranded) != 0 {
		t.Fatalf("stranded procs: %v", res.Stranded)
	}

	if got := w.List(); len(got) != 0 {
		t.Errorf("images left after removal: %v", got)
	}
	if got := w.Quarantined(); len(got) != 0 {
		t.Errorf("removed image leaked in quarantine: %v", got)
	}
	if stats := w.ScrubStatsNow(); stats.Passes != 2 || stats.Repairs != 0 || stats.Retirements != 0 {
		t.Errorf("stats = %+v, want 2 passes and no repair/retire of removed images", stats)
	}
}

// Stopping the scrubber mid-read cuts the deep read short: the scrub
// proc is done at Stop's instant, the pass it was in does not count, and
// nothing is left on the kernel.
func TestScrubberStopInterruptsDeepRead(t *testing.T) {
	w := newWarehouse()
	seedImage(t, w, "a")
	k := sim.NewKernel()
	s := w.NewScrubber(time.Minute)
	k.Spawn("owner", func(p *sim.Proc) {
		s.Start(p.Kernel())
		p.Sleep(100 * time.Millisecond) // mid-deep-read of the first pass
		s.Stop()
		p.Sleep(0) // the scrub proc runs at this same instant
		if st := s.proc.State(); st != sim.ProcDone {
			t.Errorf("scrubber state %d at Stop's instant, want done", st)
		}
		if n := p.Kernel().QueueDepth(); n != 0 {
			t.Errorf("%d events pending after the scrubber stopped", n)
		}
	})
	if res := k.Run(0); len(res.Stranded) != 0 || res.End != 100*time.Millisecond {
		t.Fatalf("ended at %v, stranded %v", res.End, res.Stranded)
	}
	if stats := w.ScrubStatsNow(); stats.Passes != 0 {
		t.Errorf("%d scrub passes counted, want none", stats.Passes)
	}
}

// The quarantine accessors are the one warehouse surface read from
// outside the kernel (vmctl via the debug endpoint), so they must be
// safe against a concurrently mutating kernel. Run under -race.
func TestQuarantineAccessorsConcurrentWithMutation(t *testing.T) {
	w := newWarehouse()
	for _, n := range []string{"q0", "q1", "q2"} {
		seedImage(t, w, n)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				w.Quarantined()
				w.IsQuarantined("q1")
				w.QuarantineReason("q2")
			}
		}()
	}
	for i := 0; i < 500; i++ {
		n := []string{"q0", "q1", "q2"}[i%3]
		w.Quarantine(n, "churn")
		w.Unquarantine(n)
	}
	close(stop)
	wg.Wait()
}
