package vmm

import (
	"fmt"
	"time"

	"vmplants/internal/cluster"
	"vmplants/internal/core"
	"vmplants/internal/dag"
	"vmplants/internal/sim"
	"vmplants/internal/vdisk"
	"vmplants/internal/warehouse"
)

// Timing holds the production lines' calibrated latency constants (see
// DESIGN.md §4).
type Timing struct {
	// ResumeFixedSecs is the fixed VMM cost of a resume operation on
	// top of reading the memory image back (GSX resume machinery).
	ResumeFixedSecs float64
	// ResumeSigma is the lognormal spread on the fixed resume cost.
	ResumeSigma float64
	// BootSecs is a full guest boot for boot-style (UML) clones — the
	// paper's 32 MB UML VM clones in ≈76 s via a full reboot.
	BootSecs float64
	// BootSigma is the lognormal spread on boot time.
	BootSigma float64
}

// DefaultTiming returns the calibration used by the experiments.
func DefaultTiming() Timing {
	return Timing{
		ResumeFixedSecs: 5.5,
		ResumeSigma:     0.22,
		BootSecs:        75,
		BootSigma:       0.07,
	}
}

// CloneStats reports what a clone operation did and how long its stages
// took — the quantities behind the paper's Figures 5 and 6.
type CloneStats struct {
	Mode         vdisk.CloneMode
	CopiedBytes  int64         // physical state copied (redo, config, memory, extents under copy-mode)
	LinkedFiles  int           // extent files satisfied by soft links
	ReplicaHit   bool          // a lazy clone found the node's memory-image replica current
	ReplicaFill  bool          // a lazy clone copied the memory image into the replica
	SharedResume bool          // a lazy clone mapped the replica pages a running VM holds, reading nothing
	CopyTime     time.Duration // state-copy stage
	ResumeTime   time.Duration // resume (or boot) stage
	Total        time.Duration // end-to-end clone latency (PPP clone → VM usable)
}

// Backend is one production line implementation.
type Backend interface {
	// Name returns the backend key ("vmware", "uml").
	Name() string
	// Clone instantiates the opened golden image (cctx.Image) as a new
	// VM on node. mode selects link-cloning (the paper's mechanism),
	// full copying (the slow baseline) or lazy cloning.
	Clone(p *sim.Proc, node *cluster.Node, cctx *warehouse.CloneContext, id core.VMID, mode vdisk.CloneMode) (*VM, CloneStats, error)
}

// memImageBytes is the checkpoint file size for a guest of this shape.
func memImageBytes(hw core.HardwareSpec) int64 {
	return int64(hw.MemoryMB+warehouse.MemImageOverheadMB) * 1024 * 1024
}

// cloneDiskState lays down the clone's disk state files in dir on the
// node: links or copies of the golden extents, plus a copy of the base
// redo log and the VM configuration file. Returns bytes physically
// copied, files linked, and the paths laid down. On error it leaves no
// file behind.
func cloneDiskState(p *sim.Proc, node *cluster.Node, golden *warehouse.Image, dir string, mode vdisk.CloneMode) (int64, int, []string, error) {
	local := node.LocalDisk()
	wh := node.Warehouse() // the node's NFS view of the warehouse volume
	files := make([]string, 2, 2+len(golden.ExtentPaths))
	files[0], files[1] = dir+"vm.cfg", dir+"base.redo"
	var copied int64
	var linked int
	fail := func(err error) (int64, int, []string, error) {
		removeAll(local, files...)
		return 0, 0, nil, err
	}

	// "replicates the VM configuration file … for each clone"
	n, err := wh.CopyTo(p, golden.ConfigPath, local, files[0], 1, sim.Foreground)
	if err != nil {
		return fail(fmt.Errorf("vmm: replicate config: %w", err))
	}
	copied += n

	// "… and base redo log for each clone"
	n, err = wh.CopyTo(p, golden.RedoPath, local, files[1], 1, sim.Foreground)
	if err != nil {
		return fail(fmt.Errorf("vmm: copy redo log: %w", err))
	}
	copied += n

	// A lazy clone lays no extent down: its disk reads them from the
	// node's image cache, which the plant fills (or a guest touch faults
	// a block in first).
	if mode == vdisk.CloneByLazy {
		return copied, 0, files, nil
	}
	// "uses soft links for the virtual hard disk" — or full copies for
	// the ablation baseline.
	for i, ext := range golden.ExtentPaths {
		dst := fmt.Sprintf("%sdisk-s%03d.vmdk", dir, i)
		if mode == vdisk.CloneByLink {
			if err := local.LinkForeign(p, wh, ext, dst); err != nil {
				return fail(fmt.Errorf("vmm: link extent: %w", err))
			}
			linked++
		} else {
			n, err := wh.CopyTo(p, ext, local, dst, 1, sim.Foreground)
			if err != nil {
				return fail(fmt.Errorf("vmm: copy extent: %w", err))
			}
			copied += n
		}
		files = append(files, dst)
	}
	return copied, linked, files, nil
}

// VMware is the checkpoint-resume production line (paper §4.1): golden
// machines are suspended VMs; clones copy the memory state (a lazy clone
// links it to the node's replica) and resume without a guest boot.
type VMware struct {
	Timing Timing
}

// NewVMware returns the backend with default timing.
func NewVMware() *VMware { return &VMware{Timing: DefaultTiming()} }

// Name implements Backend.
func (b *VMware) Name() string { return warehouse.BackendVMware }

// Clone implements Backend.
func (b *VMware) Clone(p *sim.Proc, node *cluster.Node, cctx *warehouse.CloneContext, id core.VMID, mode vdisk.CloneMode) (*VM, CloneStats, error) {
	golden := cctx.Image
	if golden.Backend != warehouse.BackendVMware {
		return nil, CloneStats{}, fmt.Errorf("vmm: vmware line cannot clone %q image %q", golden.Backend, golden.Name)
	}
	start := p.Now()
	stats := CloneStats{Mode: mode}
	res, err := golden.Disk.Clone(string(id), mode)
	if err != nil {
		return nil, CloneStats{}, err
	}

	dir := "vms/" + string(id) + "/"
	copied, linked, files, err := cloneDiskState(p, node, golden, dir, mode)
	if err != nil {
		return nil, CloneStats{}, err
	}
	stats.CopiedBytes += copied
	stats.LinkedFiles = linked

	memPath := dir + "mem.vmss"
	image, err := loadMemory(p, node, cctx, memPath, start, &stats)
	if err != nil {
		// A memory file linked to the replica loses the link.
		removeAll(node.LocalDisk(), append(files, memPath)...)
		return nil, CloneStats{}, err
	}
	// The fixed VMM resume cost: all a clone that mapped resident pages
	// pays for its resume.
	p.Sleep(sim.Seconds(node.RNG().LogNormalMean(b.Timing.ResumeFixedSecs, b.Timing.ResumeSigma)))
	stats.Total = p.Now() - start
	stats.ResumeTime = stats.Total - stats.CopyTime
	vm := &VM{
		id:      id,
		name:    golden.Name,
		hw:      golden.Hardware,
		backend: b.Name(),
		node:    node,
		disk:    res.Disk,
		guest:   golden.Guest.Clone(),
		state:   Running,
		memPath: memPath,
		image:   image,
		files:   files,
		timing:  b.Timing,
		history: append([]dag.Action(nil), golden.Performed...),
	}
	return vm, stats, nil
}

// loadMemory lays the clone's memory image at memPath, commits the
// guest's host memory and reads the image back under the node's memory
// pressure. "The memory state is currently copied by the VMPlant
// implementation during cloning", and link and copy clones keep that
// per-clone copy. A lazy clone copies the immutable image into the
// node's image cache once per (image, epoch), links memPath to that
// replica and maps its pages, which it returns: while a running VM maps
// the same bytes it reads nothing. Replica and pages count only under the
// warehouse's current checksum, so nothing quarantined, repaired or
// re-published since is resumed from stale bytes. Errors hold nothing.
func loadMemory(p *sim.Proc, node *cluster.Node, cctx *warehouse.CloneContext, memPath string, start time.Duration, stats *CloneStats) (*cluster.CacheEntry, error) {
	golden := cctx.Image
	local, wh := node.LocalDisk(), node.Warehouse()
	dst := memPath
	var image *cluster.CacheEntry
	if stats.Mode == vdisk.CloneByLazy {
		dst = cctx.MemReplica
		sum, _ := wh.Checksum(golden.MemImagePath)
		image = node.CacheEntry(dst, sum)
		// One fill or read-back of the bytes at a time: a clone that finds
		// one under way waits, then maps the pages it left resident, or
		// does the work itself if it failed.
		image.Acquire(p, 1)
		defer image.Release(p, 1)
		got, ok := local.Checksum(dst)
		stats.ReplicaHit = ok && got == sum
		stats.ReplicaFill = !stats.ReplicaHit
		stats.SharedResume = stats.ReplicaHit && image.Maps > 0
	}
	if !stats.ReplicaHit {
		// A loaded host pages while absorbing the incoming memory image,
		// so the copy slows under memory pressure too (priced as if this
		// VM's own footprint were already committed).
		copyScale := node.PressureScale(golden.Hardware.MemoryMB) * node.Jitter()
		n, err := wh.CopyTo(p, golden.MemImagePath, local, dst, copyScale, sim.Foreground)
		if err != nil {
			return nil, fmt.Errorf("vmm: copy memory state: %w", err)
		}
		stats.CopiedBytes += n
		if image != nil {
			image.Fills++
		}
	}
	if dst != memPath {
		if err := local.Link(p, dst, memPath); err != nil {
			return nil, fmt.Errorf("vmm: link memory state: %w", err)
		}
	}
	stats.CopyTime = p.Now() - start

	node.Commit(golden.Hardware.MemoryMB)
	if !stats.SharedResume {
		scale := node.PressureScale(0) * node.Jitter()
		if _, err := local.Read(p, memPath, scale); err != nil {
			node.Release(golden.Hardware.MemoryMB)
			return nil, err
		}
	}
	if image != nil {
		image.Maps++
	}
	return image, nil
}

// UML is the boot-style production line (paper §4.1): clones share
// read-only copy-on-write virtual disks but boot the guest instead of
// resuming a checkpoint.
type UML struct {
	Timing Timing
}

// NewUML returns the backend with default timing.
func NewUML() *UML { return &UML{Timing: DefaultTiming()} }

// Name implements Backend.
func (b *UML) Name() string { return warehouse.BackendUML }

// Clone implements Backend.
func (b *UML) Clone(p *sim.Proc, node *cluster.Node, cctx *warehouse.CloneContext, id core.VMID, mode vdisk.CloneMode) (*VM, CloneStats, error) {
	golden := cctx.Image
	if golden.Backend != warehouse.BackendUML {
		return nil, CloneStats{}, fmt.Errorf("vmm: uml line cannot clone %q image %q", golden.Backend, golden.Name)
	}
	start := p.Now()
	stats := CloneStats{Mode: mode}
	res, err := golden.Disk.Clone(string(id), mode)
	if err != nil {
		return nil, CloneStats{}, err
	}

	copied, linked, files, err := cloneDiskState(p, node, golden, "vms/"+string(id)+"/", mode)
	if err != nil {
		return nil, CloneStats{}, err
	}
	stats.CopiedBytes += copied
	stats.LinkedFiles = linked
	stats.CopyTime = p.Now() - start

	// "the current UML production line boots the virtual machine after
	// cloning, instead of resuming it from a checkpoint."
	node.Commit(golden.Hardware.MemoryMB)
	bootStart := p.Now()
	boot := node.RNG().LogNormalMean(b.Timing.BootSecs, b.Timing.BootSigma)
	p.Sleep(sim.Seconds(boot * node.PressureScale(0)))
	stats.ResumeTime = p.Now() - bootStart
	stats.Total = p.Now() - start

	// A freshly booted guest has the golden image's installed state but
	// nothing running: services come up configured, not started.
	guest := golden.Guest.Clone()
	for svc, st := range guest.Services {
		if st == "running" {
			guest.Services[svc] = "configured"
		}
	}
	vm := &VM{
		id:      id,
		name:    golden.Name,
		hw:      golden.Hardware,
		backend: b.Name(),
		node:    node,
		disk:    res.Disk,
		guest:   guest,
		state:   Running,
		files:   files,
		timing:  b.Timing,
		history: append([]dag.Action(nil), golden.Performed...),
	}
	return vm, stats, nil
}

// Registry maps backend names to implementations.
type Registry map[string]Backend

// DefaultRegistry returns both production lines with default timing.
func DefaultRegistry() Registry {
	return Registry{
		warehouse.BackendVMware: NewVMware(),
		warehouse.BackendUML:    NewUML(),
	}
}

// Get resolves a backend by name; "" resolves to vmware.
func (r Registry) Get(name string) (Backend, error) {
	if name == "" {
		name = warehouse.BackendVMware
	}
	b, ok := r[name]
	if !ok {
		return nil, fmt.Errorf("vmm: no production line %q", name)
	}
	return b, nil
}
