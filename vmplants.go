// Package vmplants is a from-scratch Go implementation of the VMPlants
// middleware (Krsul et al., "VMPlants: Providing and Managing Virtual
// Machine Execution Environments for Grid Computing", SC 2004): a
// service-oriented architecture in which a front-end VMShop takes
// XML-described virtual-machine creation requests — hardware constraints
// plus a configuration DAG — collects cost bids from VMPlants deployed
// on cluster nodes, and has the winning plant instantiate the VM by
// partially matching the DAG against cached "golden" images, cloning the
// best match via copy-on-write links, and executing the residual
// configuration actions through an in-guest agent.
//
// The physical substrate (cluster nodes, NFS storage, hosted VMMs) is a
// deterministic discrete-event simulation calibrated to the paper's
// testbed; everything above it — DAG model, partial matching, classads,
// bidding, cloning, VNET-style overlay networking — is implemented in
// full. See DESIGN.md for the substitution table and EXPERIMENTS.md for
// the reproduced figures.
//
// Quick start:
//
//	sys, _ := vmplants.New(vmplants.Config{Plants: 4, Seed: 1})
//	sys.PublishGolden("base", vmplants.Hardware{Arch: "x86", MemoryMB: 64, DiskMB: 2048},
//	    vmplants.BackendVMware, history)
//	id, ad, _ := sys.CreateVM(spec)
//	fmt.Println(ad.GetString("IP", ""))
package vmplants

import (
	"errors"
	"fmt"
	"time"

	"vmplants/internal/classad"
	"vmplants/internal/cluster"
	"vmplants/internal/core"
	"vmplants/internal/cost"
	"vmplants/internal/dag"
	"vmplants/internal/plant"
	"vmplants/internal/shop"
	"vmplants/internal/sim"
	"vmplants/internal/vdisk"
	"vmplants/internal/warehouse"
)

// Re-exported domain types, so library users need only this package.
type (
	// VMID identifies a virtual machine instance.
	VMID = core.VMID
	// Hardware is a VM hardware specification.
	Hardware = core.HardwareSpec
	// Spec is a complete VM creation request.
	Spec = core.Spec
	// Ad is a classad (attribute,value record with expressions).
	Ad = classad.Ad
	// Graph is a configuration DAG.
	Graph = dag.Graph
	// Action is one configuration operation.
	Action = dag.Action
	// ErrorPolicy is a DAG node's error handling declaration.
	ErrorPolicy = dag.ErrorPolicy
	// GraphBuilder assembles configuration DAGs.
	GraphBuilder = dag.Builder
)

// Production-line backends.
const (
	BackendVMware = warehouse.BackendVMware
	BackendUML    = warehouse.BackendUML
)

// Action targets.
const (
	Guest = dag.Guest
	Host  = dag.Host
)

// NewGraph returns a configuration DAG builder.
func NewGraph() *GraphBuilder { return dag.NewBuilder() }

// Config assembles a System.
type Config struct {
	// Plants is the number of cluster nodes, one VMPlant each
	// (default 4; the paper's testbed used 8).
	Plants int
	// Seed makes the whole system deterministic.
	Seed int64
	// CostModel is "free-memory" (prototype default) or
	// "network+compute" (the §3.4 model).
	CostModel string
	// MaxVMsPerPlant caps each plant (0 = unlimited).
	MaxVMsPerPlant int
	// HostOnlyNetworksPerPlant is the vmnet pool size (default 4).
	HostOnlyNetworksPerPlant int
	// CloneByCopy replaces link cloning with full disk copies.
	CloneByCopy bool
	// FailProb injects per-operation configuration failures.
	FailProb map[string]float64
}

// System is an in-process VMPlants deployment: a simulated cluster, a
// warehouse, plants, and a shop. All operations advance a virtual
// clock; Now reports it.
type System struct {
	kernel *sim.Kernel
	tb     *cluster.Testbed
	wh     *warehouse.Warehouse
	plants []*plant.Plant
	shop   *shop.Shop
}

// New builds a system.
func New(cfg Config) (*System, error) {
	if cfg.Plants <= 0 {
		cfg.Plants = 4
	}
	model, err := cost.ByName(cfg.CostModel)
	if err != nil {
		return nil, err
	}
	k := sim.NewKernel()
	tb := cluster.NewTestbed(k, cfg.Plants, cluster.DefaultParams(), cfg.Seed)
	wh := warehouse.New(tb.Warehouse)
	mode := vdisk.CloneByLink
	if cfg.CloneByCopy {
		mode = vdisk.CloneByCopy
	}
	s := &System{kernel: k, tb: tb, wh: wh}
	var handles []shop.PlantHandle
	for _, node := range tb.Nodes {
		pl := plant.New(node.Name(), node, wh, plant.Config{
			MaxVMs:           cfg.MaxVMsPerPlant,
			HostOnlyNetworks: cfg.HostOnlyNetworksPerPlant,
			CostModel:        model,
			CloneMode:        mode,
			FailProb:         cfg.FailProb,
		})
		s.plants = append(s.plants, pl)
		handles = append(handles, shop.NewLocalHandle(pl))
	}
	s.shop = shop.New("shop", handles, cfg.Seed+1)
	return s, nil
}

// Now reports the system's virtual time.
func (s *System) Now() time.Duration { return s.kernel.Now() }

// Plants lists plant names.
func (s *System) Plants() []string {
	out := make([]string, len(s.plants))
	for i, pl := range s.plants {
		out[i] = pl.Name()
	}
	return out
}

// GoldenImages lists published golden image names.
func (s *System) GoldenImages() []string { return s.wh.List() }

// PublishGolden builds and publishes a golden image whose configuration
// history is the given action sequence (executed from a blank machine).
func (s *System) PublishGolden(name string, hw Hardware, backend string, history []Action) error {
	im, err := warehouse.BuildGolden(name, hw, backend, history)
	if err != nil {
		return err
	}
	return s.wh.Publish(im)
}

// do runs body as a client process, drives the simulation to
// quiescence and returns body's error.
func (s *System) do(name string, body func(p *sim.Proc) error) (err error) {
	if derr := s.kernel.Do(name, func(p *sim.Proc) { err = body(p) }); derr != nil {
		return derr
	}
	return err
}

// CreateVM submits a creation request through the shop and returns the
// assigned VMID and the resulting classad.
func (s *System) CreateVM(spec *Spec) (id VMID, ad *Ad, err error) {
	err = s.do("client-create", func(p *sim.Proc) (cerr error) {
		id, ad, cerr = s.shop.Create(p, spec)
		return cerr
	})
	return id, ad, err
}

// QueryVM fetches an active VM's classad.
func (s *System) QueryVM(id VMID) (ad *Ad, err error) {
	err = s.do("client-query", func(p *sim.Proc) (qerr error) {
		ad, qerr = s.shop.Query(p, id)
		return qerr
	})
	return ad, err
}

// DestroyVM collects an active VM.
func (s *System) DestroyVM(id VMID) error {
	return s.do("client-destroy", func(p *sim.Proc) error { return s.shop.Destroy(p, id) })
}

// PublishVM checkpoints an active VM and publishes it to the warehouse
// as a new golden image named image — the installer workflow: configure
// a workspace once, publish it, and subsequent requests whose DAGs
// extend its configuration clone it instead of repeating the work.
func (s *System) PublishVM(id VMID, image string) error {
	return s.do("client-publish", func(p *sim.Proc) error { return s.shop.Publish(p, id, image) })
}

// SuspendVM parks an active VM: its memory image is checkpointed and
// host memory freed — how In-VIGO parks idle virtual workspaces.
func (s *System) SuspendVM(id VMID) error {
	return s.do("client-suspend", func(p *sim.Proc) error { return s.shop.Suspend(p, id) })
}

// ResumeVM brings a suspended VM back to running.
func (s *System) ResumeVM(id VMID) error {
	return s.do("client-resume", func(p *sim.Proc) error { return s.shop.Resume(p, id) })
}

// findPlant resolves a plant by name.
func (s *System) findPlant(name string) (*plant.Plant, error) {
	for _, pl := range s.plants {
		if pl.Name() == name {
			return pl, nil
		}
	}
	return nil, fmt.Errorf("vmplants: no plant %q", name)
}

// MigrateVM moves an active VM to the named plant: suspend, stream the
// private state over the cluster interconnect, resume on the
// destination (the paper's §6 "migration of active VMs across plants").
func (s *System) MigrateVM(id VMID, toPlant string) error {
	dst, err := s.findPlant(toPlant)
	if err != nil {
		return err
	}
	var src *plant.Plant
	for _, pl := range s.plants {
		if _, ok := pl.VM(id); ok {
			src = pl
			break
		}
	}
	if src == nil {
		return fmt.Errorf("vmplants: no plant hosts VM %s", id)
	}
	return s.do("client-migrate", func(p *sim.Proc) error { return src.MigrateTo(p, id, dst) })
}

// Precreate speculatively clones the named golden image count times on
// the named plant, parking the clones suspended so later matching
// requests resume them instead of paying the state copy (the paper's
// §4.3 latency-hiding optimization).
func (s *System) Precreate(plantName, image string, count int) error {
	pl, err := s.findPlant(plantName)
	if err != nil {
		return err
	}
	return s.do("client-precreate", func(p *sim.Proc) error { return pl.Precreate(p, image, count) })
}

// Advance moves virtual time forward by d with no client activity
// (monitor processes and timeouts still run).
func (s *System) Advance(d time.Duration) error {
	return s.kernel.Do("advance", func(p *sim.Proc) { p.Sleep(d) })
}

// Bids returns the shop's bidding audit log.
func (s *System) Bids() []shop.BidRecord { return s.shop.Bids() }

// PlantOf reports which plant hosts a VM, from the shop's routing view.
func (s *System) PlantOf(id VMID) (string, error) {
	if name := s.shop.RouteOf(id); name != "" {
		return name, nil
	}
	return "", errors.New("vmplants: unknown VM")
}

// GuestProbe sends an Ethernet-layer echo probe to a VM on its
// host-only network and reports whether the guest answered — the
// smallest possible end-to-end liveness check.
func (s *System) GuestProbe(id VMID) (bool, error) {
	var answered bool
	found := false
	for _, pl := range s.plants {
		vm, ok := pl.VM(id)
		if !ok {
			continue
		}
		found = true
		probe := vm.Network().Switch.Attach("probe")
		probe.Send(probeFrame(vm.MAC()))
		_, answered = probe.Poll()
		probe.Close()
		break
	}
	if !found {
		return false, fmt.Errorf("vmplants: no plant hosts VM %s", id)
	}
	return answered, nil
}
