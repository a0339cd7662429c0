// Package cost implements the bid cost models VMPlants quote to the
// VMShop (paper §3.4). Costs are unit-free numbers; the shop picks the
// lowest bid. Two models from the paper are provided:
//
//   - NetworkCompute: the §3.4 two-component model — a one-time "network
//     cost" charged only when a fresh host-only network must be
//     allocated to the client's domain, plus a "compute cycles cost"
//     proportional to the number of VMs already operating on the plant.
//     With the paper's constants (network 50, compute 4/VM) a single
//     domain's requests stay on one plant for exactly 13 VMs before the
//     crossover to a second plant.
//
//   - FreeMemory: the prototype's model (§4.1) — "a cost model that is
//     based on the amount of host memory available for cloned VMs".
//
// Both are pure functions of a PlantView snapshot, so the same model
// runs inside simulated plants and real daemons.
package cost

import (
	"fmt"

	"vmplants/internal/core"
)

// PlantView is the plant-state snapshot a model prices against.
type PlantView struct {
	// VMs is the number of VMs currently operating on the plant.
	VMs int
	// MaxVMs is the plant's configured VM capacity (0 = unlimited).
	MaxVMs int
	// FreeMemoryMB is host memory not yet committed to VMs.
	FreeMemoryMB int
	// DomainHasNetwork reports whether the requesting client's domain
	// already owns a host-only network on this plant.
	DomainHasNetwork bool
	// FreeNetworks is the number of unassigned host-only networks.
	FreeNetworks int
}

// Model prices a creation request against a plant snapshot, returning
// core.Infeasible when the plant cannot take the VM at all.
type Model interface {
	// Estimate returns the bid for creating a VM with the given guest
	// memory on a plant in state v.
	Estimate(v PlantView, memoryMB int) core.Cost
	// Name identifies the model in logs and experiment output.
	Name() string
}

// NetworkCompute is the paper's §3.4 model.
type NetworkCompute struct {
	// NetworkCost is the one-time charge for allocating a host-only
	// network to a new client domain (paper example: 50).
	NetworkCost float64
	// ComputePerVM scales the load estimate (paper example: 4).
	ComputePerVM float64
}

// DefaultNetworkCompute returns the model with the paper's constants.
func DefaultNetworkCompute() NetworkCompute {
	return NetworkCompute{NetworkCost: 50, ComputePerVM: 4}
}

// Name implements Model.
func (m NetworkCompute) Name() string { return "network+compute" }

// Estimate implements Model. Feasibility: the plant must have VM
// capacity left, and either the domain already holds a network here or
// a free network must exist.
func (m NetworkCompute) Estimate(v PlantView, memoryMB int) core.Cost {
	if v.MaxVMs > 0 && v.VMs >= v.MaxVMs {
		return core.Infeasible
	}
	if !v.DomainHasNetwork && v.FreeNetworks == 0 {
		return core.Infeasible
	}
	c := m.ComputePerVM * float64(v.VMs)
	if !v.DomainHasNetwork {
		c += m.NetworkCost
	}
	return core.Cost(c)
}

// FreeMemory is the prototype's memory-availability model: scarcer free
// host memory means a higher bid. A plant without enough free memory
// for the requested guest is infeasible. Nothing is held in reserve:
// the paper's plants host 16 × 64 MB guests on 1.5 GB nodes, i.e.
// guests plus VMM overhead may consume all host memory (paging absorbs
// the overcommit).
type FreeMemory struct{}

// Name implements Model.
func (m FreeMemory) Name() string { return "free-memory" }

// Estimate implements Model.
func (m FreeMemory) Estimate(v PlantView, memoryMB int) core.Cost {
	if v.MaxVMs > 0 && v.VMs >= v.MaxVMs {
		return core.Infeasible
	}
	if v.FreeMemoryMB < memoryMB {
		return core.Infeasible
	}
	// Cost grows as free memory shrinks relative to the request.
	return core.Cost(float64(memoryMB) / float64(v.FreeMemoryMB) * 1000)
}

// ByName returns a model by its experiment-config name.
func ByName(name string) (Model, error) {
	switch name {
	case "", "network+compute":
		return DefaultNetworkCompute(), nil
	case "free-memory":
		return FreeMemory{}, nil
	}
	return nil, fmt.Errorf("cost: unknown model %q", name)
}
