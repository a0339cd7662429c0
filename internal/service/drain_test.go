package service

import (
	"net"
	"testing"
	"time"

	"vmplants/internal/core"
	"vmplants/internal/plant"
	"vmplants/internal/shop"
	"vmplants/internal/sim"
)

// A drain over the wire: the shop reaches its two plant daemons only
// through RemotePlant's four operations, so the drain waits until the
// client destroys the VM routed to the draining plant, then retires it.
// No VM is left on either daemon.
func TestDrainOverTCPWaitsForTheClient(t *testing.T) {
	daemons := map[string]*Daemon{}
	plants := map[string]*plant.Plant{}
	var handles []shop.PlantHandle
	for i, name := range []string{"plantA", "plantB"} {
		d, pl := newTestPlant(t, name, int64(11+i))
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		serve(t, l, NewPlantHandler(d.Runner, pl))
		rp := &RemotePlant{PlantName: name, Addr: l.Addr().String(), Timeout: 5 * time.Second}
		t.Cleanup(rp.Close)
		daemons[name], plants[name] = d, pl
		handles = append(handles, rp)
	}
	s := shop.New("shop", handles, 7)
	r := NewRunner(sim.NewKernel())
	spec, err := createReq(t).Spec()
	if err != nil {
		t.Fatal(err)
	}
	var id core.VMID
	var cerr error
	if err := r.Do("create", func(p *sim.Proc) { id, _, cerr = s.Create(p, spec) }); err != nil {
		t.Fatal(err)
	}
	if cerr != nil {
		t.Fatal(cerr)
	}
	target := s.RouteOf(id)

	var derr, collectErr error
	var routedAtCollect int
	var retiredAtCollect bool
	if err := r.Do("client", func(p *sim.Proc) {
		p.Kernel().Spawn("drain", func(dp *sim.Proc) { derr = s.DrainAndRetire(dp, target) })
		p.Sleep(time.Minute) // the drain has begun and is waiting on the VM
		routedAtCollect, retiredAtCollect = s.RoutedVMs(target), s.Retired(target)
		collectErr = s.Destroy(p, id)
	}); err != nil {
		t.Fatal(err)
	}
	if derr != nil || collectErr != nil {
		t.Fatalf("drain: %v; collect: %v", derr, collectErr)
	}
	if routedAtCollect != 1 || retiredAtCollect {
		t.Errorf("before the collect: %d VMs routed to %s (want 1), retired %v (want false)", routedAtCollect, target, retiredAtCollect)
	}
	if !s.Retired(target) {
		t.Errorf("%s not retired after its VM was collected", target)
	}
	for _, h := range s.Plants() {
		if h.Name() == target {
			t.Errorf("retired %s is still wired", target)
		}
	}
	for name, pl := range plants {
		var n int
		if err := daemons[name].Runner.Do("count", func(*sim.Proc) { n = pl.ActiveVMs() }); err != nil {
			t.Fatal(err)
		}
		if n != 0 {
			t.Errorf("%s hosts %d VMs after the drain, want 0", name, n)
		}
	}
}
