// Package vmm simulates the hosted virtual machine monitors the paper's
// production lines drive (§4.1): a VMware-GSX-style backend whose clones
// resume from a checkpointed memory image, and a UML-style backend whose
// clones boot from scratch over copy-on-write file systems. The package
// owns the VM runtime object — lifecycle, guest operating-system state,
// the guest agent that mounts configuration CD-ROMs and executes action
// scripts, and the virtual NIC on a host-only network.
package vmm

import (
	"bytes"
	"fmt"
	"slices"
	"strings"

	"vmplants/internal/actions"
	"vmplants/internal/cluster"
	"vmplants/internal/core"
	"vmplants/internal/dag"
	"vmplants/internal/isofs"
	"vmplants/internal/sim"
	"vmplants/internal/simnet"
	"vmplants/internal/storage"
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

	memPath   string              // local memory-image path ("" until first suspend for boot backends)
	image     *cluster.CacheEntry // the resident memory image a lazy clone maps until Suspend or Collect
	timing    Timing              // the production line's latency constants
	cdBlob    []byte              // attached config CD image, nil when ejected
	cdActions []dag.Action

	// files are the VM's other paths on its node's local disk: the
	// config, the redo log and the extents a link or copy clone laid
	// down. Collect deletes them, and memPath, by path.
	files []string

	// history is the VM's full configuration lineage: the golden image's
	// recorded actions plus everything executed on this instance, in
	// order. Publishing the VM as a new golden image records it.
	history []dag.Action

	// blockTouch, when set, is consulted before every guest block write —
	// the demand-fault seam for lazily cloned disks, whose extents may
	// not be in the node's image cache yet. It blocks the guest until the
	// touched block is local, or fails the action.
	blockTouch func(p *sim.Proc, block int64) error
}

// SetBlockTouchHook installs the pre-write hook lazy cloning uses to
// fault blocks in on demand (nil removes it).
func (vm *VM) SetBlockTouchHook(fn func(p *sim.Proc, block int64) error) {
	vm.blockTouch = fn
}

// removeFiles deletes the VM's files, memPath included, from its node's
// local disk, skipping any already gone. A memory file linked to the
// node's replica loses the link, not the replica.
func (vm *VM) removeFiles() {
	local := vm.node.LocalDisk()
	removeAll(local, vm.files...)
	removeAll(local, vm.memPath)
	vm.files = vm.files[:0]
}

// removeAll deletes paths from vol, skipping any already gone.
func removeAll(vol *storage.Volume, paths ...string) {
	for _, path := range paths {
		if vol.Exists(path) {
			_ = vol.Delete(path) // fails only on a missing path
		}
	}
}

// unmap ends the VM's mapping of its node's resident memory image, if it
// holds one.
func (vm *VM) unmap() {
	if vm.image != nil {
		vm.image.Maps--
		vm.image = nil
	}
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
// shebang-style header followed by key=value lines, each ended by a
// newline:
//
//	#!vmplant-action
//	op=create-user
//	target=guest
//	param.name=arijit
//
// A backslash escapes what would change how a line parses: \\ is a
// backslash, \n a newline, \r a carriage return and, in a key, \e an
// equals sign, so the first '=' of a line always ends its key. Text
// without those characters is written as it is.
const scriptMagic = "#!vmplant-action"

var scriptUnescape = strings.NewReplacer(`\\`, `\`, `\n`, "\n", `\r`, "\r", `\e`, "=")

// AppendScript appends one action's guest script to dst.
func AppendScript(dst []byte, a dag.Action) []byte {
	dst = appendEscaped(append(dst, scriptMagic+"\nop="...), a.Op, false)
	dst = append(append(append(dst, "\ntarget="...), a.Target.String()...), '\n')
	var stack [8]string
	keys := stack[:0]
	for k := range a.Params {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		dst = appendEscaped(append(dst, "param."...), k, true)
		dst = append(appendEscaped(append(dst, '='), a.Params[k], false), '\n')
	}
	return dst
}

// appendEscaped appends s to dst with the script escapes; '=' is escaped
// only in a key.
func appendEscaped(dst []byte, s string, key bool) []byte {
	for i := 0; i < len(s); i++ {
		if e := strings.IndexByte("\\\n\r=", s[i]); e >= 0 && (e < 3 || key) {
			dst = append(dst, '\\', `\nre`[e])
		} else {
			dst = append(dst, s[i])
		}
	}
	return dst
}

// ParseScript inverts AppendScript. Keys and values are slices of one
// string copy of blob. A line without its newline is a script cut off,
// and an error.
func ParseScript(blob []byte) (dag.Action, error) {
	header, s, _ := strings.Cut(string(blob), "\n")
	if strings.TrimSuffix(header, "\r") != scriptMagic {
		return dag.Action{}, fmt.Errorf("vmm: script missing %q header", scriptMagic)
	}
	var a dag.Action
	for s != "" {
		line, rest, ok := strings.Cut(s, "\n")
		if !ok {
			return dag.Action{}, fmt.Errorf("vmm: script cut off in a %d-byte line", len(line))
		}
		s, line = rest, strings.TrimSuffix(line, "\r")
		if line == "" {
			continue
		}
		key, val, ok := strings.Cut(line, "=")
		if !ok {
			return dag.Action{}, fmt.Errorf("vmm: bad script line %q", line)
		}
		if strings.Contains(line, `\`) {
			key, val = scriptUnescape.Replace(key), scriptUnescape.Replace(val)
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
			if a.Params == nil {
				a.Params = make(map[string]string, bytes.Count(blob, []byte("\nparam.")))
			}
			a.Params[key[len("param."):]] = val
		default:
			return dag.Action{}, fmt.Errorf("vmm: unknown script key %q", key)
		}
	}
	if a.Op == "" {
		return dag.Action{}, fmt.Errorf("vmm: script without op")
	}
	return a, nil
}

// BuildConfigCD burns a sequence of guest actions onto a CD image, one
// script per action appended straight into the image. A script is named
// scripts/NNNN-<op>.sh: four digits number every file isofs.MaxFiles
// allows, so path order — the order the agent reads — is plan order.
func BuildConfigCD(acts []dag.Action) ([]byte, error) {
	// An upper bound for scripts without escapes: one allocation.
	size := 16
	for _, a := range acts {
		size += 64 + 2*len(a.Op)
		for k, v := range a.Params {
			size += 8 + len(k) + len(v)
		}
	}
	w := isofs.NewWriter(size)
	var path [64]byte
	for i, a := range acts {
		p := append(path[:0], "scripts/"...)
		p = append(p, byte('0'+i/1000%10), byte('0'+i/100%10), byte('0'+i/10%10), byte('0'+i%10), '-')
		p = append(append(p, a.Op...), ".sh"...)
		if err := w.Add(p, func(b []byte) []byte { return AppendScript(b, a) }); err != nil {
			return nil, err
		}
	}
	return w.Finish(), nil
}

// AttachCD connects a CD image to the VM; the guest agent mounts it and
// parses the scripts in place, in on-disc order. A CD is already
// attached → error (one virtual CD-ROM drive).
func (vm *VM) AttachCD(p *sim.Proc, blob []byte) error {
	if vm.state != Running {
		return fmt.Errorf("vmm: %s is %s; cannot attach CD", vm.id, vm.state)
	}
	if vm.cdBlob != nil {
		return fmt.Errorf("vmm: %s already has a CD attached", vm.id)
	}
	// Host-side attach plus in-guest mount.
	p.Sleep(sim.Seconds(0.5 * vm.node.Jitter()))
	acts, err := readCD(blob)
	if err != nil {
		return err
	}
	vm.cdBlob = blob
	vm.cdActions = acts
	return nil
}

// readCD is the guest agent's parse of a config CD: every script, in
// on-disc order.
func readCD(blob []byte) ([]dag.Action, error) {
	files, err := isofs.Read(blob)
	if err != nil {
		return nil, fmt.Errorf("vmm: guest agent mount failed: %w", err)
	}
	acts := make([]dag.Action, len(files))
	for i, f := range files {
		if acts[i], err = ParseScript(f.Data); err != nil {
			return nil, fmt.Errorf("vmm: guest agent: script %q: %w", f.Path, err)
		}
	}
	return acts, nil
}

// CDActions returns the actions parsed from the attached CD, in
// execution order. The slice is the VM's own: callers must not modify
// it.
func (vm *VM) CDActions() []dag.Action { return vm.cdActions }

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
	var blk [vdisk.BlockSize]byte
	n := copy(blk[:], "config ")
	n += copy(blk[n:], vm.id)
	n += copy(blk[n:], " ")
	copy(blk[n:], a.Op)
	blocks := vm.disk.Base().SizeBytes() / vdisk.BlockSize
	idx := (blocks/2 + int64(len(vm.guest.Outputs))) % blocks
	if vm.blockTouch != nil {
		if err := vm.blockTouch(p, idx); err != nil {
			return fmt.Errorf("vmm: block %d fault: %w", idx, err)
		}
	}
	if err := vm.disk.WriteBlock(idx, blk[:]); err != nil {
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
// node's local disk, ending its mapping of the image it resumed from —
// and releases the guest's host memory. VMware-line
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
	vm.unmap()
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

// Collect stops the VM and releases its host resources: node memory and
// its mapping of a resident memory image, NIC port, the discardable redo
// state (the paper's non-persistent sessions) and its files on the
// node's local disk. The host-only
// network slot is released by the plant, which owns domain accounting.
func (vm *VM) Collect(p *sim.Proc) error {
	if vm.state == Stopped {
		return fmt.Errorf("vmm: %s already collected", vm.id)
	}
	p.Sleep(sim.Seconds(0.5 * vm.node.Jitter()))
	vm.disk.DiscardTop()
	vm.removeFiles()
	vm.unmap()
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
