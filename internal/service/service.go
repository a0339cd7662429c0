// Package service puts the wire protocol in front of the core library
// for the standalone daemons (cmd/vmplantd, cmd/vmshopd): a runner that
// serializes simulation executions behind network handlers, one serve
// core behind the plant-side and shop-side proto.Handlers (serve.go),
// and one call core behind the clients that reach them over TCP — the
// shop's handles on remote plants and peer cells, and the typed
// ShopClient (call.go, client.go).
//
// The daemons expose the genuine VMPlants protocol over real sockets;
// beneath each daemon the hardware substrate is the same calibrated
// discrete-event simulation the experiments use, so a "create" returns
// immediately in wall time while reporting its virtual creation latency
// in the classad (CreateSecs/CloneSecs).
package service

import (
	"fmt"
	"sync"
	"time"

	"vmplants/internal/registry"
	"vmplants/internal/shop"
	"vmplants/internal/sim"
	"vmplants/internal/telemetry"
)

// Runner serializes operations on one simulation kernel so concurrent
// network requests never run the kernel re-entrantly.
type Runner struct {
	mu sync.Mutex
	k  *sim.Kernel
}

// NewRunner wraps a kernel.
func NewRunner(k *sim.Kernel) *Runner { return &Runner{k: k} }

// Do executes fn as a simulation process and drives the kernel to
// quiescence, under the runner's lock.
func (r *Runner) Do(name string, fn func(p *sim.Proc)) error {
	return r.do(name, telemetry.SpanContext{}, fn)
}

// do is Do with the process carrying the trace context sc from its
// start, so the spans it starts parent under sc's.
func (r *Runner) do(name string, sc telemetry.SpanContext, fn func(p *sim.Proc)) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.k.Spawn(name, fn).SetTrace(sc)
	if res := r.k.Run(0); len(res.Stranded) != 0 {
		return fmt.Errorf("sim: stranded processes: %v", res.Stranded)
	}
	return nil
}

// Now reports the kernel's virtual time under the lock.
func (r *Runner) Now() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.k.Now()
}

// PublishPlant announces a plant daemon in the service registry
// (Figure 1's "Publish" arrow), so shops can discover it instead of
// being configured with a static list.
func PublishPlant(reg *registry.Registry, name, addr string, ttl time.Duration) error {
	return reg.Publish(registry.Binding{Service: "vmplant", Name: name, Addr: addr}, ttl)
}

// DiscoverPlants resolves every live vmplant binding in the registry to
// a remote handle (Figure 1's "Discover"/"Bind" arrows).
func DiscoverPlants(reg *registry.Registry, timeout time.Duration) []shop.PlantHandle {
	var out []shop.PlantHandle
	for _, b := range reg.Discover("vmplant") {
		out = append(out, &RemotePlant{PlantName: b.Name, Addr: b.Addr, Timeout: timeout})
	}
	return out
}
