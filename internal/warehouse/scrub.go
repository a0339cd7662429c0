package warehouse

import (
	"time"

	"vmplants/internal/fault"
	"vmplants/internal/sim"
)

// DefaultScrubInterval is how long the scrubber idles between passes.
// Real scrubbers run on day-scale cycles; the default here is short
// enough that experiments over minutes of virtual time see several
// passes.
const DefaultScrubInterval = 30 * time.Second

// Scrubber is the warehouse's background integrity process: it
// periodically re-reads every published image's state off the volume
// (paying the device cost off the creation critical path), re-verifies
// checksums, and drives quarantined images through repair or
// retirement. One scrubber per warehouse.
type Scrubber struct {
	w        *Warehouse
	Interval time.Duration

	stopped bool
	proc    *sim.Proc
}

// NewScrubber returns a scrubber for the warehouse (not yet started).
// interval ≤ 0 selects DefaultScrubInterval.
func (w *Warehouse) NewScrubber(interval time.Duration) *Scrubber {
	if interval <= 0 {
		interval = DefaultScrubInterval
	}
	return &Scrubber{w: w, Interval: interval}
}

// Start spawns the scrub loop on the kernel. The loop re-schedules
// itself forever, so a simulation that runs to quiescence must Stop it
// before the last foreground process exits.
func (s *Scrubber) Start(k *sim.Kernel) {
	s.proc = k.Spawn("warehouse/scrubber", func(p *sim.Proc) {
		for !s.stopped {
			s.w.ScrubPass(p)
			if s.stopped {
				return
			}
			p.Wait(s.Interval)
		}
	})
}

// Stop ends the scrub loop: the flag stops the next iteration and the
// interrupt cuts short a deep read in flight, or pulls the proc out of
// its between-pass sleep, so the kernel can reach quiescence. Must be
// called from a running proc.
func (s *Scrubber) Stop() {
	s.stopped = true
	if s.proc != nil {
		s.proc.Interrupt()
	}
}

// ScrubPass runs one full scrub cycle: verify every in-service image
// (reading its accounted bytes off the volume), then attempt repair of
// everything quarantined — seeds first, so a healed parent extent
// clears the derived images poisoned through it in the same pass. A deep
// read its proc's owner interrupts (Scrubber.Stop) ends the pass there.
func (w *Warehouse) ScrubPass(p *sim.Proc) {
	// List's copy: the pass sleeps in Charge and retires at the repair
	// limit, so the catalog changes under the walk.
	for _, name := range w.List() {
		im, ok := w.images[name]
		if !ok || w.IsQuarantined(name) {
			continue
		}
		// The deep read: a scrub pays for the bytes it re-reads. A
		// derived image's accounted bytes exclude the shared parent
		// extents, which are scrubbed at the parent; a seed's extents
		// live in the content store, so each slot is re-read through its
		// canonical path (dedup makes that the same file many times —
		// the scrub still pays per reference, like the reads it models).
		deep := im.bytes
		if !im.Derived {
			for _, ep := range im.ExtentPaths {
				if size, err := w.vol.Stat(ep); err == nil {
					deep += size
				}
			}
		}
		if w.vol.Charge(p, deep, 1, sim.Background) > 0 {
			return
		}
		// The proc slept in Charge; the image may have been removed or
		// quarantined meanwhile.
		if cur, live := w.images[name]; !live || cur != im || w.IsQuarantined(name) {
			continue
		}
		if w.faults.Should(integritySite, fault.CorruptExtent, "scrub") {
			w.corruptPath(corruptTarget(im))
		}
		if bad := w.badArtifacts(im); len(bad) > 0 {
			w.detect(im, bad, "scrub")
		} else {
			w.mScrubVerified.Inc()
		}
	}
	for _, derived := range []bool{false, true} {
		for _, name := range w.Quarantined() {
			im, ok := w.images[name]
			if !ok || im.Derived != derived {
				continue
			}
			w.repairOne(p, im)
		}
	}
	w.mScrubPasses.Inc()
}

// repairOne attempts to heal one quarantined image and settles the
// outcome: back in service when every artifact verifies again,
// retirement once the repair limit is exhausted and retirement is safe
// (derived, no live clones), quarantined otherwise.
func (w *Warehouse) repairOne(p *sim.Proc, im *Image) {
	var healed int64
	if im.Derived {
		healed = w.repairDerived(p, im)
	} else {
		healed = w.repairSeed(p, im)
	}
	// Re-lookup: the image may have been removed while repair I/O slept.
	if cur, live := w.images[im.Name]; !live || cur != im {
		return
	}
	if len(w.badArtifacts(im)) == 0 {
		w.mRepairs.Inc()
		w.mRepairBytes.Add(healed)
		w.qmu.Lock()
		delete(w.repairFails, im.Name)
		w.qmu.Unlock()
		w.Unquarantine(im.Name)
		return
	}
	w.qmu.Lock()
	w.repairFails[im.Name]++
	exhausted := w.repairFails[im.Name] >= w.repairLimit
	w.qmu.Unlock()
	if exhausted && im.Derived && im.refs == 0 {
		w.retired++
		w.mRetirements.Inc()
		w.mScrubRetire.Inc()
		w.unregister(im)
	}
	// Seeds and referenced images are never retired by the scrubber:
	// they stay quarantined until an operator (or a later pass with a
	// replica) can heal them.
}

// repairSeed restores a seed image's bad artifacts: disk extents are
// copied back from the replica volume (paying both devices' costs);
// everything else — config, redo log, memory image, descriptor — is
// regenerated from the in-memory image, whose Disk still holds the
// frozen golden state. Returns the bytes healed.
func (w *Warehouse) repairSeed(p *sim.Proc, im *Image) int64 {
	var healed int64
	for _, path := range w.badArtifacts(im) {
		if im.isExtent(path) {
			if w.replica == nil || !w.replica.Exists(path) {
				continue // unrepairable without a replica copy
			}
			if n, err := w.replica.CopyTo(p, path, w.vol, path, 1, sim.Foreground); err == nil {
				healed += n
			}
			continue
		}
		healed += w.rebuildArtifact(p, im, path)
	}
	return healed
}

// repairDerived re-materializes a derived image's own state by
// replaying its DAG suffix against the parent seed — the fingerprint
// name already pins the action history, so a successful replay proves
// the regenerated state matches what was published. Bad shared extents
// cannot be healed here; they clear when the parent's repair lands
// (seeds are repaired first in each pass).
func (w *Warehouse) repairDerived(p *sim.Proc, im *Image) int64 {
	parent, ok := w.images[im.Parent]
	if !ok || w.IsQuarantined(im.Parent) {
		return 0 // need a healthy parent to replay against
	}
	var own []string
	for _, path := range w.badArtifacts(im) {
		if !im.isExtent(path) {
			own = append(own, path)
		}
	}
	if len(own) == 0 {
		return 0
	}
	if _, err := BuildDerived(im.Name, parent, im.Performed); err != nil {
		return 0 // history no longer replays; unrepairable
	}
	var healed int64
	for _, path := range own {
		healed += w.rebuildArtifact(p, im, path)
	}
	return healed
}

// isExtent reports whether path is one of the image's disk extents
// (shared with the parent for derived images).
func (im *Image) isExtent(path string) bool {
	for _, p := range im.ExtentPaths {
		if p == path {
			return true
		}
	}
	return false
}

// rebuildArtifact regenerates one non-extent state file from the
// in-memory image, paying the volume's write cost, and records the
// canonical checksum. Returns the bytes written.
func (w *Warehouse) rebuildArtifact(p *sim.Proc, im *Image, path string) int64 {
	var size int64
	switch path {
	case im.ConfigPath:
		size = configBytes
	case im.RedoPath:
		size = im.Disk.RedoBytes()
	case im.MemImagePath:
		size = im.MemImageBytes()
	case im.descriptorPath():
		size = int64(len(im.descriptor))
	default:
		return 0
	}
	w.vol.Charge(p, size, 1, sim.Foreground)
	w.vol.WriteMetaSum(path, size, im.Sums[path])
	return size
}
