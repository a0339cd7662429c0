package service

import (
	"sync"
	"testing"
	"time"

	"vmplants/internal/core"
	"vmplants/internal/dag"
	"vmplants/internal/proto"
	"vmplants/internal/sim"
	"vmplants/internal/workload"
)

// A connection's reader hands a request whose <dag> repeats the last
// one it decoded the graph it decoded then, so one graph serves a
// plant's estimate and the create that follows it, and a peer shop's
// estimate and the forward-create that follows it. That is sound only
// while nothing edits a graph read off the wire: this drives the
// plant's Estimate, Create (which configures the VM from the graph),
// Publish and Collect, and the shop's Forward, over TCP, and holds each
// graph a handler was handed to the wire form it was read from.
func TestWireGraphsAreOnlyRead(t *testing.T) {
	g, err := workload.InVigoDAG("user0000001", "00:50:56:00:00:01", "10.2.0.1")
	if err != nil {
		t.Fatal(err)
	}
	wire := string(g.AppendXML(nil))
	spec := &core.Spec{Name: "workspace-1", Hardware: core.HardwareSpec{Arch: "x86", MemoryMB: 64, DiskMB: 2048},
		Domain: "ufl.edu", Graph: g}

	var (
		mu     sync.Mutex
		handed = map[string][]*dag.Graph{}
	)
	record := func(daemon string, h proto.Handler) proto.Handler {
		return func(req *proto.Message) *proto.Message {
			cr := req.Create
			switch {
			case req.Estimate != nil:
				cr = req.Estimate.Create
			case req.ForwardCreate != nil:
				cr = req.ForwardCreate.Create
			}
			if cr != nil {
				mu.Lock()
				handed[daemon] = append(handed[daemon], cr.Graph)
				mu.Unlock()
			}
			return h(req)
		}
	}

	d, pl := newTestPlant(t, "plantA", 1)
	rp := &RemotePlant{PlantName: "plantA", Addr: listenAndServe(t, record("plant", NewPlantHandler(d.Runner, pl))), Timeout: 5 * time.Second}
	t.Cleanup(rp.Close)
	db, b, _ := newCellB(t)
	peer := NewRemotePeer("b", listenAndServe(t, record("shop", NewShopHandler(db.Runner, b))), 5*time.Second, nil)
	t.Cleanup(peer.Close)
	fwd := *spec
	fwd.Origin, fwd.RequestID = "a", "fwd-a-1"

	on(t, NewRunner(sim.NewKernel()))(func(p *sim.Proc) {
		if c, _, err := rp.Estimate(p, spec); err != nil || !c.OK() {
			t.Fatalf("plant estimate: %v, %v", c, err)
		}
		if _, err := rp.Create(p, "vm-1", spec); err != nil {
			t.Fatal(err)
		}
		if err := rp.Publish(p, "vm-1", "workspace-1-image"); err != nil {
			t.Fatal(err)
		}
		if _, err := rp.Collect(p, "vm-1"); err != nil {
			t.Fatal(err)
		}
		if c, err := peer.Estimate(p, &fwd); err != nil || !c.OK() {
			t.Fatalf("peer estimate: %v, %v", c, err)
		}
		id, _, err := peer.Create(p, &fwd)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := peer.Collect(p, id); err != nil {
			t.Fatal(err)
		}
	})

	for _, daemon := range []string{"plant", "shop"} {
		gs := handed[daemon]
		if len(gs) != 2 || gs[0] != gs[1] {
			t.Errorf("%s: handed %d graphs, want one graph twice: %p", daemon, len(gs), gs)
			continue
		}
		if got := string(gs[0].AppendXML(nil)); got != wire {
			t.Errorf("%s edited the graph it was handed:\n got %s\nwant %s", daemon, got, wire)
		}
	}
}
