// Package cluster models the paper's physical testbed (§4.2): an 8-node
// IBM e1350 xSeries cluster (dual 2.4 GHz Pentium-4, 1.5 GB RAM, 18 GB
// SCSI disk per node), a shared NFS storage server holding the VM
// Warehouse, 100 Mbit/s switched Ethernet to the server, and the host
// memory-pressure behaviour responsible for Figure 6's growth of cloning
// time with plant occupancy.
package cluster

import (
	"fmt"
	"time"

	"vmplants/internal/sim"
	"vmplants/internal/storage"
)

// Params are the calibrated constants of the timing model (DESIGN.md §4).
type Params struct {
	// NFSClientBps is the per-node NFS throughput: 100 Mbit/s Ethernet
	// minus protocol overhead ≈ 11 MB/s. It reproduces the paper's
	// ≈210 s full copy of the 2 GB golden disk.
	NFSClientBps float64
	// LocalDiskBps is each node's SCSI disk throughput.
	LocalDiskBps float64
	// GigabitBps is node-to-node throughput over the cluster's gigabit
	// interconnect (paper §4.2: "the cluster nodes are interconnected by
	// an Ethernet gigabit switch"), used by VM migration.
	GigabitBps float64
	// TransferOverhead is the fixed per-file cost (open, protocol
	// round-trips); the golden disk spans 16 extent files, so per-file
	// overhead is visible in full copies.
	TransferOverhead time.Duration
	// NodeRAMMB is physical memory per node (1536 MB).
	NodeRAMMB int
	// VMMOverheadMB is host memory consumed per running VM beyond its
	// guest RAM (VMM data structures, host-side caches).
	VMMOverheadMB int
	// PressureThresholdMB is the committed-memory level past which
	// state I/O degrades ("an aggregate of more than 1 GB of host
	// memory", paper §4.3).
	PressureThresholdMB int
	// PressurePerGB is the latency multiplier added per GB of committed
	// memory beyond the threshold.
	PressurePerGB float64
	// JitterSigma is the lognormal spread applied to state-I/O stages.
	JitterSigma float64
}

// DefaultParams returns the calibration used by the experiments.
func DefaultParams() Params {
	return Params{
		NFSClientBps:        11e6,
		LocalDiskBps:        35e6,
		GigabitBps:          90e6,
		TransferOverhead:    120 * time.Millisecond,
		NodeRAMMB:           1536,
		VMMOverheadMB:       32,
		PressureThresholdMB: 1024,
		PressurePerGB:       1.6,
		JitterSigma:         0.18,
	}
}

// LocalDiskOverhead is each node's local disk's fixed per-transfer cost
// — what a copy from the warehouse pays on arrival, after streaming
// through the node's mount.
const LocalDiskOverhead = 20 * time.Millisecond

// Node is one physical cluster machine hosting a VMPlant.
type Node struct {
	name        string
	params      Params
	localDisk   *storage.Volume
	lan         *storage.Device // gigabit interconnect to peer nodes
	nfs         *storage.Volume // the shared warehouse volume, via this node's mount
	committedMB int
	vms         int
	rng         *sim.RNG
}

// Name returns the node name.
func (n *Node) Name() string { return n.name }

// LocalDisk returns the node's private volume.
func (n *Node) LocalDisk() *storage.Volume { return n.localDisk }

// Warehouse returns the shared NFS volume as seen from this node.
func (n *Node) Warehouse() *storage.Volume { return n.nfs }

// RNG returns the node's private random stream.
func (n *Node) RNG() *sim.RNG { return n.rng }

// Params returns the node's timing constants.
func (n *Node) Params() Params { return n.params }

// CommittedMB reports guest+VMM memory currently committed on the node.
func (n *Node) CommittedMB() int { return n.committedMB }

// VMs reports how many VMs the node hosts.
func (n *Node) VMs() int { return n.vms }

// FreeMB reports RAM not yet committed (can go negative: hosts
// overcommit and page).
func (n *Node) FreeMB() int { return n.params.NodeRAMMB - n.committedMB }

// Commit reserves host memory for a VM with the given guest RAM.
func (n *Node) Commit(guestMB int) {
	n.committedMB += guestMB + n.params.VMMOverheadMB
	n.vms++
}

// Release returns a VM's memory.
func (n *Node) Release(guestMB int) error {
	if n.vms == 0 {
		return fmt.Errorf("cluster: release on %s with no VMs", n.name)
	}
	n.committedMB -= guestMB + n.params.VMMOverheadMB
	n.vms--
	if n.committedMB < 0 {
		return fmt.Errorf("cluster: negative committed memory on %s", n.name)
	}
	return nil
}

// PressureScale returns the current state-I/O latency multiplier:
// 1.0 while committed memory is under the threshold, then growing
// linearly — the host starts paging VM state, so reading a memory image
// back (a VMware resume) slows down. extraMB lets callers price an
// operation as if a further VM were already committed.
func (n *Node) PressureScale(extraMB int) float64 {
	over := n.committedMB + extraMB - n.params.PressureThresholdMB
	if over <= 0 {
		return 1
	}
	return 1 + n.params.PressurePerGB*float64(over)/1024
}

// SendTo streams size bytes to another node over the gigabit
// interconnect, charging this node's LAN path (receivers keep up: the
// destination disk is faster than the wire for migration-sized state).
func (n *Node) SendTo(p *sim.Proc, dst *Node, size int64) {
	if dst == n || size <= 0 {
		return
	}
	n.lan.Transfer(p, size, n.Jitter(), sim.Foreground)
}

// Jitter samples a multiplicative latency factor with mean 1.
func (n *Node) Jitter() float64 {
	return n.rng.LogNormalMean(1, n.params.JitterSigma)
}

// Testbed is the simulated deployment: nodes plus the shared warehouse
// volume on the storage server.
type Testbed struct {
	Kernel    *sim.Kernel
	Params    Params
	Nodes     []*Node
	Warehouse *storage.Volume // server-side view (for publishing images)
	nfsServer *storage.Device
}

// NewTestbed builds a cluster of n nodes matching the paper's setup.
// All randomness derives from seed.
func NewTestbed(k *sim.Kernel, n int, params Params, seed int64) *Testbed {
	if n <= 0 {
		panic("cluster: need at least one node")
	}
	root := sim.NewRNG(seed)
	// The NFS server sustains four client paths' worth of bandwidth,
	// time-shared among every transfer in progress.
	server := storage.NewDevice("nfs-server", 4*params.NFSClientBps, params.TransferOverhead)
	tb := &Testbed{
		Kernel:    k,
		Params:    params,
		Warehouse: storage.NewVolume("warehouse", server),
		nfsServer: server,
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("node%02d", i)
		// Each node's NFS mount is its own 100 Mbit/s path; the shared
		// server device above bounds aggregate throughput.
		mount := storage.NewDevice(name+".nfs", params.NFSClientBps, params.TransferOverhead)
		mount.ShareServer(server)
		local := storage.NewDevice(name+".scsi", params.LocalDiskBps, LocalDiskOverhead)
		node := &Node{
			name:      name,
			params:    params,
			localDisk: storage.NewVolume(name+"/disk", local),
			lan:       storage.NewDevice(name+".lan", params.GigabitBps, 5*time.Millisecond),
			nfs:       newMountView(tb.Warehouse, mount),
			rng:       root.Child(),
		}
		tb.Nodes = append(tb.Nodes, node)
	}
	return tb
}

// newMountView wraps the warehouse namespace behind a per-node device:
// the same files, but transfers costed against the node's own NFS path.
// storage.Volume has no view concept, so the mount shares the map via a
// second Volume over the same underlying storage — implemented by
// re-pointing the files map.
func newMountView(server *storage.Volume, dev *storage.Device) *storage.Volume {
	return server.ViewOn(dev)
}
