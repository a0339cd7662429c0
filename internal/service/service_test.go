package service

import (
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"vmplants/internal/actions"
	"vmplants/internal/core"
	"vmplants/internal/dag"
	"vmplants/internal/plant"
	"vmplants/internal/proto"
	"vmplants/internal/registry"
	"vmplants/internal/shop"
	"vmplants/internal/sim"
	"vmplants/internal/telemetry"
	"vmplants/internal/warehouse"
)

func act(op string, kv ...string) dag.Action {
	p := map[string]string{}
	for i := 0; i+1 < len(kv); i += 2 {
		p[kv[i]] = kv[i+1]
	}
	tgt, _ := actions.DefaultTarget(op)
	return dag.Action{Op: op, Target: tgt, Params: p}
}

// startPlantDaemon spins up one plant daemon on a loopback listener.
func startPlantDaemon(t *testing.T, name string, seed int64) (addr string) {
	t.Helper()
	addr, _ = startPlantDaemonOn(t, name, seed, func(l net.Listener) net.Listener { return l })
	return addr
}

// startPlantDaemonOn is startPlantDaemon serving through wrap(listener),
// also returning the daemon's telemetry hub.
func startPlantDaemonOn(t *testing.T, name string, seed int64, wrap func(net.Listener) net.Listener) (string, *telemetry.Hub) {
	t.Helper()
	d, pl := newTestPlant(t, name, seed)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serve(t, wrap(l), NewPlantHandler(d.Runner, pl))
	return l.Addr().String(), d.Hub
}

// newTestPlant builds a plant daemon's insides: one golden image, one
// eight-VM plant.
func newTestPlant(t *testing.T, name string, seed int64) (*Daemon, *plant.Plant) {
	t.Helper()
	return newTestPlantCfg(t, name, seed, plant.Config{MaxVMs: 8})
}

func newTestPlantCfg(t *testing.T, name string, seed int64, cfg plant.Config) (*Daemon, *plant.Plant) {
	t.Helper()
	im, err := warehouse.BuildGolden("base",
		core.HardwareSpec{Arch: "x86", MemoryMB: 64, DiskMB: 2048},
		warehouse.BackendVMware,
		[]dag.Action{act(actions.OpInstallOS, "distro", "redhat-8.0")})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDaemon(name)
	pl, err := d.HostPlant(name, seed, cfg, im)
	if err != nil {
		t.Fatal(err)
	}
	return d, pl
}

// serve runs proto.Serve on l until the test ends, then closes the
// listener and waits for Serve — and so for every connection's request
// loop — to return. The first call in a test also arms the test's
// goroutine-leak check.
func serve(t *testing.T, l net.Listener, h proto.Handler) (stop func()) {
	t.Helper()
	checkGoroutines(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		proto.Serve(l, h)
	}()
	stop = func() {
		l.Close()
		<-done
	}
	t.Cleanup(stop)
	return stop
}

var (
	leakMu      sync.Mutex
	leakChecked = map[*testing.T]bool{}
)

// checkGoroutines asserts, once per test and after every other cleanup
// the test registers later, that the test ends with no more goroutines
// than it started with. Closing a socket and the goroutine parked on it
// noticing are not one step, hence the short settle loop.
func checkGoroutines(t *testing.T) {
	leakMu.Lock()
	armed := leakChecked[t]
	leakChecked[t] = true
	leakMu.Unlock()
	if armed {
		return
	}
	// Parked carriers on sim's free list are goroutines the kernel keeps
	// on purpose; a test that warms the list has not leaked them.
	live := func() int { return runtime.NumGoroutine() - sim.Idle() }
	before := live()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for live() > before && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if after := live(); after > before {
			buf := make([]byte, 1<<16)
			t.Errorf("goroutines: %d before the test, %d after\n%s", before, after, buf[:runtime.Stack(buf, true)])
		}
	})
}

// startShopDaemon spins up a shop daemon over the given plant daemons.
func startShopDaemon(t *testing.T, plantAddrs map[string]string) (addr string) {
	t.Helper()
	addr, _ = startTracedShopDaemon(t, plantAddrs)
	return addr
}

func requestGraph(t *testing.T) *dag.Graph {
	t.Helper()
	g, err := dag.NewBuilder().
		Add("os", act(actions.OpInstallOS, "distro", "redhat-8.0")).
		Add("user", act(actions.OpCreateUser, "name", "ivan"), "os").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func createReq(t *testing.T) *proto.CreateRequest {
	return &proto.CreateRequest{
		Name:     "itest",
		Arch:     "x86",
		MemoryMB: 64,
		DiskMB:   2048,
		Domain:   "example.edu",
		Graph:    requestGraph(t),
	}
}

func TestFullStackOverTCP(t *testing.T) {
	plants := map[string]string{
		"plantA": startPlantDaemon(t, "plantA", 1),
		"plantB": startPlantDaemon(t, "plantB", 2),
	}
	shopAddr := startShopDaemon(t, plants)

	c, err := proto.Dial(shopAddr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Create.
	resp, err := c.Call(&proto.Message{Kind: proto.KindCreateRequest, Create: createReq(t)})
	if err != nil {
		t.Fatal(err)
	}
	id := resp.Created.VMID
	if !strings.HasPrefix(id, "vm-shop-") {
		t.Fatalf("VMID = %q", id)
	}
	ad := resp.Created.Ad
	if ad.GetString(core.AttrState, "") != "running" {
		t.Errorf("state = %q", ad.GetString(core.AttrState, ""))
	}
	if ad.GetReal(core.AttrCloneSecs, 0) <= 0 {
		t.Error("classad lost clone latency")
	}

	// Query.
	q, err := c.Call(&proto.Message{Kind: proto.KindQueryRequest, Query: &proto.QueryRequest{VMID: id}})
	if err != nil {
		t.Fatal(err)
	}
	if !q.Queried.Found || q.Queried.Ad.GetString(core.AttrName, "") != "itest" {
		t.Errorf("query = %+v", q.Queried)
	}

	// Destroy, then the VM is gone.
	d, err := c.Call(&proto.Message{Kind: proto.KindDestroyRequest, Destroy: &proto.DestroyRequest{VMID: id}})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Destroyed.Destroyed {
		t.Error("destroy reported false")
	}
	if _, err := c.Call(&proto.Message{Kind: proto.KindQueryRequest, Query: &proto.QueryRequest{VMID: id}}); err == nil {
		t.Error("query after destroy succeeded")
	}
}

func TestShopSurvivesPlantCrash(t *testing.T) {
	// One live plant plus one address nobody listens on.
	plants := map[string]string{
		"alive": startPlantDaemon(t, "alive", 3),
		"dead":  "127.0.0.1:1", // nothing listens here
	}
	var handles []shop.PlantHandle
	for name, a := range plants {
		handles = append(handles, &RemotePlant{PlantName: name, Addr: a, Timeout: time.Second})
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
		t.Fatalf("create with one dead plant: %v", cerr)
	}
	if id == "" {
		t.Fatal("no VMID")
	}
}

func TestPlantHandlerRejectsBadRequests(t *testing.T) {
	addr := startPlantDaemon(t, "p", 4)
	c, err := proto.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Create without a shop-assigned VMID.
	if _, err := c.Call(&proto.Message{Kind: proto.KindCreateRequest, Create: createReq(t)}); err == nil {
		t.Error("plant accepted create without vmid")
	}
	// Invalid spec.
	bad := createReq(t)
	bad.VMID = "vm-x-1"
	bad.MemoryMB = 0
	if _, err := c.Call(&proto.Message{Kind: proto.KindCreateRequest, Create: bad}); err == nil {
		t.Error("plant accepted invalid spec")
	}
	// Wrong service.
	if _, err := c.Call(&proto.Message{Kind: proto.KindEstimateResponse, Bid: &proto.EstimateResponse{}}); err == nil {
		t.Error("plant served a response kind")
	}
}

func TestEstimateOverTCP(t *testing.T) {
	addr := startPlantDaemon(t, "p", 5)
	rp := &RemotePlant{PlantName: "p", Addr: addr, Timeout: 5 * time.Second}
	r := NewRunner(sim.NewKernel())
	spec, err := createReq(t).Spec()
	if err != nil {
		t.Fatal(err)
	}
	var c core.Cost
	var eerr error
	if err := r.Do("est", func(p *sim.Proc) { c, _, eerr = rp.Estimate(p, spec) }); err != nil {
		t.Fatal(err)
	}
	if eerr != nil || !c.OK() {
		t.Errorf("estimate = %v, %v", c, eerr)
	}
}

func TestDiscoverPlantsFromRegistry(t *testing.T) {
	reg := registry.New()
	addrA := startPlantDaemon(t, "regA", 31)
	addrB := startPlantDaemon(t, "regB", 32)
	if err := PublishPlant(reg, "regA", addrA, 0); err != nil {
		t.Fatal(err)
	}
	if err := PublishPlant(reg, "regB", addrB, 0); err != nil {
		t.Fatal(err)
	}
	handles := DiscoverPlants(reg, 5*time.Second)
	if len(handles) != 2 {
		t.Fatalf("discovered %d plants", len(handles))
	}
	s := shop.New("shop", handles, 7)
	r := NewRunner(sim.NewKernel())
	spec, err := createReq(t).Spec()
	if err != nil {
		t.Fatal(err)
	}
	var cerr error
	if err := r.Do("create", func(p *sim.Proc) { _, _, cerr = s.Create(p, spec) }); err != nil {
		t.Fatal(err)
	}
	if cerr != nil {
		t.Fatalf("create through discovered plants: %v", cerr)
	}
}

func TestLifecycleOverTCP(t *testing.T) {
	plants := map[string]string{"p": startPlantDaemon(t, "p", 41)}
	shopAddr := startShopDaemon(t, plants)
	c, err := proto.Dial(shopAddr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Call(&proto.Message{Kind: proto.KindCreateRequest, Create: createReq(t)})
	if err != nil {
		t.Fatal(err)
	}
	id := resp.Created.VMID
	sus, err := c.Call(&proto.Message{Kind: proto.KindLifecycleRequest,
		Lifecycle: &proto.LifecycleRequest{VMID: id, Op: proto.LifecycleSuspend}})
	if err != nil {
		t.Fatal(err)
	}
	if sus.Lifecycled.State != "suspended" {
		t.Errorf("state = %q", sus.Lifecycled.State)
	}
	res, err := c.Call(&proto.Message{Kind: proto.KindLifecycleRequest,
		Lifecycle: &proto.LifecycleRequest{VMID: id, Op: proto.LifecycleResume}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lifecycled.State != "running" {
		t.Errorf("state = %q", res.Lifecycled.State)
	}
	if _, err := c.Call(&proto.Message{Kind: proto.KindLifecycleRequest,
		Lifecycle: &proto.LifecycleRequest{VMID: id, Op: "defenestrate"}}); err == nil {
		t.Error("unknown lifecycle op accepted")
	}
}

func TestShopClientFullLifecycle(t *testing.T) {
	plants := map[string]string{"p": startPlantDaemon(t, "p", 51)}
	shopAddr := startShopDaemon(t, plants)
	sc, err := DialShop(shopAddr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	spec, err := createReq(t).Spec()
	if err != nil {
		t.Fatal(err)
	}
	id, ad, err := sc.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	if ad.GetString(core.AttrState, "") != "running" {
		t.Errorf("state = %q", ad.GetString(core.AttrState, ""))
	}
	if _, err := sc.Query(id); err != nil {
		t.Fatal(err)
	}
	if err := sc.Suspend(id); err != nil {
		t.Fatal(err)
	}
	if err := sc.Resume(id); err != nil {
		t.Fatal(err)
	}
	if err := sc.Publish(id, "client-published"); err != nil {
		t.Fatal(err)
	}
	if err := sc.Destroy(id); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Query(id); err == nil {
		t.Error("query after destroy succeeded")
	}
	if err := sc.Destroy(id); err == nil {
		t.Error("double destroy succeeded")
	}
	// Invalid spec rejected client-side.
	bad := *spec
	bad.Domain = ""
	if _, _, err := sc.Create(&bad); err == nil {
		t.Error("invalid spec accepted")
	}
}

// A panic in a simulation process is the daemon's failure, not one bad
// request: the kernel refuses every later operation with the first
// failure, so nothing runs over what the half-finished process left. The
// wrapper stands in for a handler whose process hits a bug part-way.
func TestProcessPanicTakesTheDaemonDown(t *testing.T) {
	d, pl := newTestPlant(t, "plantA", 1)
	plantHandler := NewPlantHandler(d.Runner, pl)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serve(t, l, func(req *proto.Message) *proto.Message {
		if req.Kind == proto.KindDestroyRequest {
			_ = d.Runner.Do("half-done-destroy", func(p *sim.Proc) {
				p.Sleep(time.Second)
				panic("index out of range")
			})
		}
		return plantHandler(req)
	})
	c, err := proto.Dial(l.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, req := range []*proto.Message{
		{Kind: proto.KindDestroyRequest, Destroy: &proto.DestroyRequest{VMID: "vm-1"}},
		{Kind: proto.KindQueryRequest, Query: &proto.QueryRequest{VMID: "vm-1"}},
	} {
		_, err := c.Call(req)
		var remote *proto.RemoteError
		if !errors.As(err, &remote) || remote.Code != proto.CodeInternal ||
			!strings.Contains(remote.Detail, `sim: t=1s proc="half-done-destroy": panic: index out of range`) {
			t.Errorf("%s after the panic: %v, want CodeInternal naming the process", req.Kind, err)
		}
	}
}
