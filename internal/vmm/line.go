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
	Mode        vdisk.CloneMode
	CopiedBytes int64         // physical state copied (redo, config, memory, extents under copy-mode)
	LinkedFiles int           // extent files satisfied by soft links
	CopyTime    time.Duration // state-copy stage
	ResumeTime  time.Duration // resume (or boot) stage
	Total       time.Duration // end-to-end clone latency (PPP clone → VM usable)
}

// Backend is one production line implementation.
type Backend interface {
	// Name returns the backend key ("vmware", "uml").
	Name() string
	// Clone instantiates the golden image as a new VM on node. mode
	// selects link-cloning (the paper's mechanism) or full copying (the
	// slow baseline).
	Clone(p *sim.Proc, node *cluster.Node, golden *warehouse.Image, id core.VMID, mode vdisk.CloneMode) (*VM, CloneStats, error)
}

// memImageBytes is the checkpoint file size for a guest of this shape.
func memImageBytes(hw core.HardwareSpec) int64 {
	return int64(hw.MemoryMB+warehouse.MemImageOverheadMB) * 1024 * 1024
}

// cloneDiskState lays down the clone's disk state files on the node:
// links or copies of the golden extents, plus a copy of the base redo
// log and the VM configuration file. Returns bytes physically copied
// and files linked.
func cloneDiskState(p *sim.Proc, node *cluster.Node, golden *warehouse.Image, id core.VMID, mode vdisk.CloneMode) (int64, int, error) {
	local := node.LocalDisk()
	wh := node.Warehouse() // the node's NFS view of the warehouse volume
	dir := "vms/" + string(id) + "/"
	var copied int64
	var linked int

	// "replicates the VM configuration file … for each clone"
	n, err := wh.CopyTo(p, golden.ConfigPath, local, dir+"vm.cfg", 1, sim.Foreground)
	if err != nil {
		return 0, 0, fmt.Errorf("vmm: replicate config: %w", err)
	}
	copied += n

	// "… and base redo log for each clone"
	n, err = wh.CopyTo(p, golden.RedoPath, local, dir+"base.redo", 1, sim.Foreground)
	if err != nil {
		return 0, 0, fmt.Errorf("vmm: copy redo log: %w", err)
	}
	copied += n

	// "uses soft links for the virtual hard disk" — or full copies for
	// the ablation baseline.
	for i, ext := range golden.ExtentPaths {
		dst := fmt.Sprintf("%sdisk-s%03d.vmdk", dir, i)
		switch mode {
		case vdisk.CloneByLink:
			if err := local.LinkForeign(p, wh, ext, dst); err != nil {
				return 0, 0, fmt.Errorf("vmm: link extent: %w", err)
			}
			linked++
		case vdisk.CloneByCopy:
			n, err := wh.CopyTo(p, ext, local, dst, 1, sim.Foreground)
			if err != nil {
				return 0, 0, fmt.Errorf("vmm: copy extent: %w", err)
			}
			copied += n
		case vdisk.CloneByLazy:
			// Deferred: the plant's hydrator materializes this extent in
			// the background after the VM resumes (or a guest touch
			// faults it in first). Nothing is laid down here.
		}
	}
	return copied, linked, nil
}

// VMware is the checkpoint-resume production line (paper §4.1): golden
// machines are suspended VMs; clones copy the memory state and resume
// without a guest boot.
type VMware struct {
	Timing Timing
}

// NewVMware returns the backend with default timing.
func NewVMware() *VMware { return &VMware{Timing: DefaultTiming()} }

// Name implements Backend.
func (b *VMware) Name() string { return warehouse.BackendVMware }

// Clone implements Backend.
func (b *VMware) Clone(p *sim.Proc, node *cluster.Node, golden *warehouse.Image, id core.VMID, mode vdisk.CloneMode) (*VM, CloneStats, error) {
	if golden.Backend != warehouse.BackendVMware {
		return nil, CloneStats{}, fmt.Errorf("vmm: vmware line cannot clone %q image %q", golden.Backend, golden.Name)
	}
	start := p.Now()
	stats := CloneStats{Mode: mode}

	copied, linked, err := cloneDiskState(p, node, golden, id, mode)
	if err != nil {
		return nil, CloneStats{}, err
	}
	stats.CopiedBytes += copied
	stats.LinkedFiles = linked

	// "The memory state is currently copied by the VMPlant
	// implementation during cloning" — the dominant per-clone cost,
	// scaling with guest memory size.
	memPath := "vms/" + string(id) + "/mem.vmss"
	// A loaded host pages while absorbing the incoming memory image, so
	// the copy slows under memory pressure too (priced as if this VM's
	// own footprint were already committed).
	copyScale := node.PressureScale(golden.Hardware.MemoryMB) * node.Jitter()
	n, err := node.Warehouse().CopyTo(p, golden.MemImagePath, node.LocalDisk(), memPath, copyScale, sim.Foreground)
	if err != nil {
		return nil, CloneStats{}, fmt.Errorf("vmm: copy memory state: %w", err)
	}
	stats.CopiedBytes += n
	stats.CopyTime = p.Now() - start

	// Resume: commit host memory, read the image back under the node's
	// current memory pressure, then the fixed VMM resume cost.
	node.Commit(golden.Hardware.MemoryMB)
	resumeStart := p.Now()
	scale := node.PressureScale(0) * node.Jitter()
	if _, err := node.LocalDisk().Read(p, memPath, scale); err != nil {
		node.Release(golden.Hardware.MemoryMB)
		return nil, CloneStats{}, err
	}
	p.Sleep(sim.Seconds(node.RNG().LogNormalMean(b.Timing.ResumeFixedSecs, b.Timing.ResumeSigma)))
	stats.ResumeTime = p.Now() - resumeStart
	stats.Total = p.Now() - start

	res, err := golden.Disk.Clone(string(id), mode)
	if err != nil {
		node.Release(golden.Hardware.MemoryMB)
		return nil, CloneStats{}, err
	}
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
		timing:  b.Timing,
		history: append([]dag.Action(nil), golden.Performed...),
	}
	return vm, stats, nil
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
func (b *UML) Clone(p *sim.Proc, node *cluster.Node, golden *warehouse.Image, id core.VMID, mode vdisk.CloneMode) (*VM, CloneStats, error) {
	if golden.Backend != warehouse.BackendUML {
		return nil, CloneStats{}, fmt.Errorf("vmm: uml line cannot clone %q image %q", golden.Backend, golden.Name)
	}
	start := p.Now()
	stats := CloneStats{Mode: mode}

	copied, linked, err := cloneDiskState(p, node, golden, id, mode)
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

	res, err := golden.Disk.Clone(string(id), mode)
	if err != nil {
		node.Release(golden.Hardware.MemoryMB)
		return nil, CloneStats{}, err
	}
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
