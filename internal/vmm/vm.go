// Package vmm simulates the hosted virtual machine monitors the paper's
// production lines drive (§4.1): a VMware-GSX-style backend whose clones
// resume from a checkpointed memory image, and a UML-style backend whose
// clones boot from scratch over copy-on-write file systems. The package
// owns the VM runtime object — lifecycle, guest operating-system state,
// the guest agent that mounts configuration CD-ROMs and executes action
// scripts, and the virtual NIC on a host-only network.
package vmm

import (
	"bufio"
	"bytes"
	"fmt"
	"sort"
	"strings"

	"vmplants/internal/actions"
	"vmplants/internal/cluster"
	"vmplants/internal/core"
	"vmplants/internal/dag"
	"vmplants/internal/isofs"
	"vmplants/internal/sim"
	"vmplants/internal/simnet"
	"vmplants/internal/vdisk"
)

// RunState is the hypervisor-level state of a VM.
type RunState int

// VM run states.
const (
	Suspended RunState = iota
	Running
	Stopped
)

func (s RunState) String() string {
	switch s {
	case Suspended:
		return "suspended"
	case Running:
		return "running"
	}
	return "stopped"
}

// VM is one virtual machine instance hosted by a production line.
type VM struct {
	id      core.VMID
	name    string
	hw      core.HardwareSpec
	backend string
	node    *cluster.Node
	disk    *vdisk.Disk
	guest   *actions.State
	state   RunState

	mac simnet.MAC
	nic *simnet.Port
	net *simnet.HostOnlyNet

	memPath   string // local memory-image path ("" until first suspend for boot backends)
	timing    Timing // the production line's latency constants
	cdBlob    []byte // attached config CD image, nil when ejected
	cdActions []dag.Action

	// history is the VM's full configuration lineage: the golden image's
	// recorded actions plus everything executed on this instance, in
	// order. Publishing the VM as a new golden image records it.
	history []dag.Action

	// blockTouch, when set, is consulted before every guest block write —
	// the demand-fault seam for lazily cloned disks, whose extents may
	// not be local yet. It blocks the guest until the touched block's
	// extent is materialized, or fails the action.
	blockTouch func(p *sim.Proc, block int64) error
}

// SetBlockTouchHook installs the pre-write hook lazy cloning uses to
// fault extents in on demand (nil removes it).
func (vm *VM) SetBlockTouchHook(fn func(p *sim.Proc, block int64) error) {
	vm.blockTouch = fn
}

// History returns the VM's configuration lineage (golden history plus
// the actions executed on this instance).
func (vm *VM) History() []dag.Action {
	return append([]dag.Action(nil), vm.history...)
}

// Accessors.

// ID returns the shop-assigned identifier.
func (vm *VM) ID() core.VMID { return vm.id }

// Name returns the client-chosen label.
func (vm *VM) Name() string { return vm.name }

// Hardware returns the VM's hardware configuration.
func (vm *VM) Hardware() core.HardwareSpec { return vm.hw }

// Backend returns the production line that built the VM.
func (vm *VM) Backend() string { return vm.backend }

// State returns the hypervisor run state.
func (vm *VM) State() RunState { return vm.state }

// Guest returns the guest operating-system state (live; callers must
// mutate it only through ExecGuestAction).
func (vm *VM) Guest() *actions.State { return vm.guest }

// Disk returns the VM's virtual disk.
func (vm *VM) Disk() *vdisk.Disk { return vm.disk }

// Node returns the hosting cluster node.
func (vm *VM) Node() *cluster.Node { return vm.node }

// MAC returns the virtual NIC's address (zero until AttachNIC).
func (vm *VM) MAC() simnet.MAC { return vm.mac }

// Network returns the host-only network the NIC sits on (nil if none).
func (vm *VM) Network() *simnet.HostOnlyNet { return vm.net }

// AttachNIC connects the VM to a host-only network with the given MAC.
// The guest answers EtherTypeTest probes addressed to it — enough of a
// network stack to demonstrate end-to-end reachability through VNET.
func (vm *VM) AttachNIC(net *simnet.HostOnlyNet, mac simnet.MAC) error {
	if vm.nic != nil {
		return fmt.Errorf("vmm: %s already has a NIC", vm.id)
	}
	vm.net = net
	vm.mac = mac
	vm.nic = net.Switch.Attach("vm:" + string(vm.id))
	port := vm.nic
	vm.nic.SetHandler(func(f simnet.Frame) {
		if f.EtherType != simnet.EtherTypeTest || f.Dst != mac || vm.state != Running {
			return
		}
		reply := simnet.Frame{
			Src:       mac,
			Dst:       f.Src,
			EtherType: simnet.EtherTypeTest,
			Payload:   append([]byte("echo:"), f.Payload...),
		}
		// Best effort; a torn-down port just drops the reply.
		_ = port.Send(reply)
	})
	return nil
}

// Action-script format: the host-side production line converts DAG
// actions into scripts, burns them onto a CD image, and the in-guest
// agent parses and executes them (paper §4.1). The format is a
// shebang-style header followed by key=value lines:
//
//	#!vmplant-action
//	op=create-user
//	target=guest
//	param.name=arijit
const scriptMagic = "#!vmplant-action"

// EncodeScript renders one action as guest-script bytes.
func EncodeScript(a dag.Action) []byte {
	var b bytes.Buffer
	fmt.Fprintln(&b, scriptMagic)
	fmt.Fprintf(&b, "op=%s\n", a.Op)
	fmt.Fprintf(&b, "target=%s\n", a.Target)
	keys := make([]string, 0, len(a.Params))
	for k := range a.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "param.%s=%s\n", k, a.Params[k])
	}
	return b.Bytes()
}

// ParseScript inverts EncodeScript.
func ParseScript(blob []byte) (dag.Action, error) {
	sc := bufio.NewScanner(bytes.NewReader(blob))
	if !sc.Scan() || sc.Text() != scriptMagic {
		return dag.Action{}, fmt.Errorf("vmm: script missing %q header", scriptMagic)
	}
	a := dag.Action{Params: map[string]string{}}
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		key, val, ok := strings.Cut(line, "=")
		if !ok {
			return dag.Action{}, fmt.Errorf("vmm: bad script line %q", line)
		}
		switch {
		case key == "op":
			a.Op = val
		case key == "target":
			t, err := dag.ParseTarget(val)
			if err != nil {
				return dag.Action{}, err
			}
			a.Target = t
		case strings.HasPrefix(key, "param."):
			a.Params[strings.TrimPrefix(key, "param.")] = val
		default:
			return dag.Action{}, fmt.Errorf("vmm: unknown script key %q", key)
		}
	}
	if a.Op == "" {
		return dag.Action{}, fmt.Errorf("vmm: script without op")
	}
	if len(a.Params) == 0 {
		a.Params = nil
	}
	return a, nil
}

// BuildConfigCD burns a sequence of guest actions onto a CD image, one
// script per action, named so the agent executes them in order.
func BuildConfigCD(acts []dag.Action) (*isofs.Image, error) {
	im := isofs.New()
	for i, a := range acts {
		path := fmt.Sprintf("scripts/%03d-%s.sh", i, a.Op)
		if err := im.Add(path, EncodeScript(a)); err != nil {
			return nil, err
		}
	}
	return im, nil
}

// AttachCD connects a CD image to the VM; the guest agent mounts it and
// parses the scripts. A CD is already attached → error (one virtual
// CD-ROM drive).
func (vm *VM) AttachCD(p *sim.Proc, blob []byte) error {
	if vm.state != Running {
		return fmt.Errorf("vmm: %s is %s; cannot attach CD", vm.id, vm.state)
	}
	if vm.cdBlob != nil {
		return fmt.Errorf("vmm: %s already has a CD attached", vm.id)
	}
	// Host-side attach plus in-guest mount.
	p.Sleep(sim.Seconds(0.5 * vm.node.Jitter()))
	im, err := isofs.Read(blob)
	if err != nil {
		return fmt.Errorf("vmm: guest agent mount failed: %w", err)
	}
	var acts []dag.Action
	for _, path := range im.Paths() {
		data, _ := im.Lookup(path)
		a, err := ParseScript(data)
		if err != nil {
			return fmt.Errorf("vmm: guest agent: script %q: %w", path, err)
		}
		acts = append(acts, a)
	}
	vm.cdBlob = blob
	vm.cdActions = acts
	return nil
}

// CDActions returns the actions parsed from the attached CD, in
// execution order.
func (vm *VM) CDActions() []dag.Action {
	return append([]dag.Action(nil), vm.cdActions...)
}

// DetachCD ejects the CD.
func (vm *VM) DetachCD(p *sim.Proc) error {
	if vm.cdBlob == nil {
		return fmt.Errorf("vmm: %s has no CD attached", vm.id)
	}
	p.Sleep(sim.Seconds(0.2))
	vm.cdBlob = nil
	vm.cdActions = nil
	return nil
}

// ExecGuestAction has the guest agent execute one action inside the
// guest: virtual time passes per the action's duration model, then the
// semantic effect is applied to the guest state. The returned error is
// the guest-visible failure, if any.
func (vm *VM) ExecGuestAction(p *sim.Proc, a dag.Action) error {
	if vm.state != Running {
		return fmt.Errorf("vmm: %s is %s; guest agent unreachable", vm.id, vm.state)
	}
	d, err := actions.Duration(a, vm.node.RNG())
	if err != nil {
		return err
	}
	p.Sleep(d)
	if err := actions.Apply(vm.guest, a); err != nil {
		return err
	}
	// Writing configuration dirties the private redo log: one block per
	// action keeps the disk model honest.
	blk := make([]byte, vdisk.BlockSize)
	copy(blk, fmt.Sprintf("config %s %s", vm.id, a.Op))
	blocks := vm.disk.Base().SizeBytes() / vdisk.BlockSize
	idx := (blocks/2 + int64(len(vm.guest.Outputs))) % blocks
	if vm.blockTouch != nil {
		if err := vm.blockTouch(p, idx); err != nil {
			return fmt.Errorf("vmm: block %d fault: %w", idx, err)
		}
	}
	if err := vm.disk.WriteBlock(idx, blk); err != nil {
		return fmt.Errorf("vmm: config write: %w", err)
	}
	vm.history = append(vm.history, a)
	return nil
}

// ExecHostAction runs a host-side DAG action (device attach/detach …)
// against the VM's host-visible state.
func (vm *VM) ExecHostAction(p *sim.Proc, a dag.Action) error {
	d, err := actions.Duration(a, vm.node.RNG())
	if err != nil {
		return err
	}
	p.Sleep(d)
	if err := actions.Apply(vm.guest, a); err != nil {
		return err
	}
	vm.history = append(vm.history, a)
	return nil
}

// Suspend checkpoints the VM — its memory image is written to the
// node's local disk — and releases the guest's host memory. VMware-line
// VMs use the hosted VMM's native suspend; UML-line VMs use the
// SBUML-style checkpointing the paper cites ("With checkpointing
// techniques such as SBUML, it is possible to clone virtual machines
// from the corresponding snapshots and resume them without a full
// reboot").
func (vm *VM) Suspend(p *sim.Proc) error {
	if vm.state != Running {
		return fmt.Errorf("vmm: suspend of %s in state %s", vm.id, vm.state)
	}
	if vm.memPath == "" {
		vm.memPath = "vms/" + string(vm.id) + "/mem.ckpt"
	}
	scale := vm.node.PressureScale(0) * vm.node.Jitter()
	if err := vm.node.LocalDisk().Write(p, vm.memPath, memImageBytes(vm.hw), scale); err != nil {
		return err
	}
	if err := vm.node.Release(vm.hw.MemoryMB); err != nil {
		return err
	}
	vm.state = Suspended
	return nil
}

// Resume brings a suspended VM back: host memory is re-committed and
// the checkpoint read back under the node's current memory pressure,
// plus the VMM's fixed resume cost.
func (vm *VM) Resume(p *sim.Proc) error {
	if vm.state != Suspended {
		return fmt.Errorf("vmm: resume of %s in state %s", vm.id, vm.state)
	}
	vm.node.Commit(vm.hw.MemoryMB)
	scale := vm.node.PressureScale(0) * vm.node.Jitter()
	if _, err := vm.node.LocalDisk().Read(p, vm.memPath, scale); err != nil {
		vm.node.Release(vm.hw.MemoryMB)
		return err
	}
	p.Sleep(sim.Seconds(vm.node.RNG().LogNormalMean(vm.timing.ResumeFixedSecs, vm.timing.ResumeSigma)))
	vm.state = Running
	return nil
}

// DetachNIC disconnects the VM from its host-only network (migration
// re-homes the NIC on the destination plant's network).
func (vm *VM) DetachNIC() {
	if vm.nic != nil {
		vm.nic.Close()
		vm.nic = nil
		vm.net = nil
	}
}

// Migrate re-homes a suspended VM onto another cluster node: the
// checkpointed memory image and the private redo logs stream over the
// cluster's gigabit interconnect, and the shared golden state is
// re-linked from the destination's warehouse mount (no bulk disk copy —
// the same property that makes cloning fast makes migration cheap).
func (vm *VM) Migrate(p *sim.Proc, dst *cluster.Node) error {
	if vm.state != Suspended {
		return fmt.Errorf("vmm: migrate of %s in state %s (suspend first)", vm.id, vm.state)
	}
	if dst == vm.node {
		return nil
	}
	moved := vm.disk.RedoBytes()
	if vm.memPath != "" {
		moved += memImageBytes(vm.hw)
	}
	vm.node.SendTo(p, dst, moved)
	// The destination now holds the state files.
	if vm.memPath != "" {
		dst.LocalDisk().WriteMeta(vm.memPath, memImageBytes(vm.hw))
	}
	vm.node = dst
	return nil
}

// Rebrand reassigns a suspended VM's identity — how a speculatively
// pre-created clone takes on the VMID of the request it ends up
// serving.
func (vm *VM) Rebrand(id core.VMID, name string) error {
	if vm.state != Suspended {
		return fmt.Errorf("vmm: rebrand of %s in state %s", vm.id, vm.state)
	}
	vm.id = id
	vm.name = name
	return nil
}

// Collect stops the VM and releases its host resources: node memory,
// NIC port, and the discardable redo state (the paper's non-persistent
// sessions). The host-only network slot is released by the plant, which
// owns domain accounting.
func (vm *VM) Collect(p *sim.Proc) error {
	if vm.state == Stopped {
		return fmt.Errorf("vmm: %s already collected", vm.id)
	}
	p.Sleep(sim.Seconds(0.5 * vm.node.Jitter()))
	vm.disk.DiscardTop()
	if vm.nic != nil {
		vm.nic.Close()
		vm.nic = nil
	}
	// A suspended VM gave its host memory back when it was parked.
	if vm.state != Suspended {
		if err := vm.node.Release(vm.hw.MemoryMB); err != nil {
			return err
		}
	}
	vm.state = Stopped
	return nil
}
