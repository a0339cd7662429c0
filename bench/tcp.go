package main

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vmplants/internal/classad"
	"vmplants/internal/cluster"
	"vmplants/internal/core"
	"vmplants/internal/cost"
	"vmplants/internal/journal"
	"vmplants/internal/plant"
	"vmplants/internal/proto"
	"vmplants/internal/service"
	"vmplants/internal/shop"
	"vmplants/internal/sim"
	"vmplants/internal/storage"
	"vmplants/internal/telemetry"
	"vmplants/internal/vdisk"
	"vmplants/internal/warehouse"
	"vmplants/internal/workload"
)

// This file is the tcp transport: cmd/vmshopd and plants × cmd/vmplantd
// wired in one process on loopback, each daemon with its own kernel, hub
// and journal, driven by conns service.ShopClient connections at once.

// countingListener counts accepted connections and, in the traced run,
// the bytes that cross them.
type countingListener struct {
	net.Listener
	dials *atomic.Int64
	bytes *atomic.Int64 // nil in the gated run: connections pass through untouched
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.dials.Add(1)
	if l.bytes == nil {
		return c, nil
	}
	return &countingConn{Conn: c, bytes: l.bytes}, nil
}

type countingConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.bytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.bytes.Add(int64(n))
	return n, err
}

// plantDaemon is one vmplantd.
type plantDaemon struct {
	hub    *telemetry.Hub
	node   *cluster.Node
	wh     *warehouse.Warehouse
	pl     *plant.Plant
	runner *service.Runner
	jnl    *journal.Journal
	refs   int // extent references after publishing
}

// tcpSite is one epoch's set of daemons.
type tcpSite struct {
	plants     []*plantDaemon
	shop       *shop.Shop
	shopHub    *telemetry.Hub
	shopRunner *service.Runner
	shopJnl    *journal.Journal
	shopAddr   string

	conns     []*service.ShopClient // one per client
	listeners []net.Listener
	serving   sync.WaitGroup
	dials     atomic.Int64
	bytes     atomic.Int64
	// createMsg is a create request as the shop handler received it,
	// kept by the traced run for the proto micro-driver.
	createMsg *proto.Message
	capOnce   sync.Once
}

// serve starts proto.Serve on a fresh loopback port and returns its
// address. A fresh port per epoch keeps this epoch's connections clear
// of the previous epochs' TIME-WAIT sockets.
func (ts *tcpSite) serve(h proto.Handler, traced bool) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	cl := &countingListener{Listener: l, dials: &ts.dials}
	if traced {
		cl.bytes = &ts.bytes
	}
	ts.listeners = append(ts.listeners, cl)
	ts.serving.Add(1)
	go func() {
		defer ts.serving.Done()
		proto.Serve(cl, h)
	}()
	return l.Addr().String(), nil
}

// close closes the clients' connections, then stops the listeners and
// waits for their accept loops.
func (ts *tcpSite) close() {
	for _, sc := range ts.conns {
		sc.Close()
	}
	for _, l := range ts.listeners {
		l.Close()
	}
	ts.serving.Wait()
}

func (ts *tcpSite) hubs() []*telemetry.Hub {
	hs := []*telemetry.Hub{ts.shopHub}
	for _, d := range ts.plants {
		hs = append(hs, d.hub)
	}
	return hs
}

// creationLogLens marks where each plant's creation log stands.
func (ts *tcpSite) creationLogLens() []int {
	out := make([]int, len(ts.plants))
	for i, d := range ts.plants {
		out[i] = len(d.pl.CreationLog())
	}
	return out
}

// furthestKernel is the virtual time of the furthest-advanced plant
// kernel: the daemons' clocks are independent, and the busiest plant's
// is what bounds the site's virtual throughput.
func (ts *tcpSite) furthestKernel() time.Duration {
	var far time.Duration
	for _, d := range ts.plants {
		far = max(far, d.runner.Now())
	}
	return far
}

// tracedHandler puts a span around a proto.Handler.
func tracedHandler(t *tracer, layer int, pfx string, h proto.Handler) proto.Handler {
	return func(req *proto.Message) *proto.Message {
		lc := 0
		switch {
		case req.Create != nil:
			lc, _ = lifecycleOfName(req.Create.Name)
		case req.Estimate != nil && req.Estimate.Create != nil:
			lc, _ = lifecycleOfName(req.Estimate.Create.Name)
		case req.Query != nil:
			lc = t.actingOn(core.VMID(req.Query.VMID))
		case req.Destroy != nil:
			lc = t.actingOn(core.VMID(req.Destroy.VMID))
		}
		name := strings.TrimSuffix(string(req.Kind), "-request")
		s := t.start(layer, pfx+name, lc, 0)
		resp := h(req)
		t.end(s, 0)
		return resp
	}
}

// loopbackDaemons returns the build function of a workload that runs
// against the daemons: it builds and starts them, as the two commands
// do, and dials the clients' connections.
func loopbackDaemons(plants, conns int) func(int64, *shape, *tracer) (transport, error) {
	return func(seed int64, _ *shape, tr *tracer) (transport, error) {
		ts, err := newTCPSite(seed, plants, tr)
		if err != nil {
			return nil, err
		}
		for i := 0; i < conns; i++ {
			sc, err := service.DialShop(ts.shopAddr, 30*time.Second)
			if err != nil {
				ts.close()
				return nil, err
			}
			ts.conns = append(ts.conns, sc)
		}
		return ts, nil
	}
}

func newTCPSite(seed int64, plants int, tr *tracer) (*tcpSite, error) {
	ts := &tcpSite{}
	model, err := cost.ByName("free-memory")
	if err != nil {
		return nil, err
	}
	var handles []shop.PlantHandle
	shopHub := telemetry.New()
	shopHub.T().SetIDBase(telemetry.IDBaseForInstance("shop"))
	for i := 0; i < plants; i++ {
		name := fmt.Sprintf("plant%d", i)
		hub := telemetry.New()
		hub.T().SetIDBase(telemetry.IDBaseForInstance(name))
		k := sim.NewKernel()
		k.SetTelemetry(hub)
		tb := cluster.NewTestbed(k, 1, cluster.DefaultParams(), seed*16+int64(i))
		wh := warehouse.New(tb.Warehouse)
		wh.SetTelemetry(hub)
		for _, mem := range memorySizesMB {
			hw := core.HardwareSpec{Arch: "x86", MemoryMB: mem, DiskMB: 2048}
			im, err := warehouse.BuildGolden(workload.GoldenName(mem, warehouse.BackendVMware),
				hw, warehouse.BackendVMware, workload.InVigoGoldenHistory())
			if err != nil {
				return nil, err
			}
			if err := wh.Publish(im); err != nil {
				return nil, err
			}
		}
		pl := plant.New(name, tb.Nodes[0], wh, plant.Config{
			MaxVMs: 32, HostOnlyNetworks: 4, CostModel: model, CloneMode: vdisk.CloneByLazy, Telemetry: hub,
		})
		runner := service.NewRunner(k)
		hub.VClock = runner
		hub.SLO = telemetry.NewSLOEngine(hub.M(), workload.DefaultSLOObjectives()...)
		jnl := journal.Open(tb.Nodes[0].LocalDisk(), "journal/"+name)
		jnl.SetTelemetry(hub)
		pl.SetJournal(jnl)
		wh.SetJournal(jnl)
		d := &plantDaemon{hub: hub, node: tb.Nodes[0], wh: wh, pl: pl, runner: runner, jnl: jnl,
			refs: wh.ExtentStatsNow().Refs}
		ts.plants = append(ts.plants, d)

		h := service.NewPlantHandler(runner, pl)
		if tr != nil {
			h = tracedHandler(tr, layerPlant, "plant.", h)
		}
		addr, err := ts.serve(h, tr != nil)
		if err != nil {
			ts.close()
			return nil, err
		}
		var ph shop.PlantHandle = &service.RemotePlant{PlantName: name, Addr: addr, Timeout: 30 * time.Second, Telemetry: shopHub}
		if tr != nil {
			ph = &tracedHandle{PlantHandle: ph, t: tr, layer: layerRPC, pfx: "rpc."}
		}
		handles = append(handles, ph)
	}

	s := shop.New("shop", handles, seed)
	s.CacheAds = true
	s.SetTelemetry(shopHub)
	s.SetAdmission(shopAdmission)
	k := sim.NewKernel()
	k.SetTelemetry(shopHub)
	runner := service.NewRunner(k)
	shopHub.VClock = runner
	shopHub.SLO = telemetry.NewSLOEngine(shopHub.M(), workload.DefaultSLOObjectives()...)
	vol := storage.NewVolume("shop-log", storage.NewDevice("shop-log-disk", 64<<20, 100*time.Microsecond))
	jnl := journal.Open(vol, "journal/shop")
	jnl.SetTelemetry(shopHub)
	s.SetJournal(jnl)
	ts.shop, ts.shopHub, ts.shopRunner, ts.shopJnl = s, shopHub, runner, jnl

	h := service.NewShopHandler(runner, s)
	if tr != nil {
		inner := tracedHandler(tr, layerShop, "shop.", h)
		h = func(req *proto.Message) *proto.Message {
			if req.Kind == proto.KindCreateRequest {
				ts.capOnce.Do(func() { ts.createMsg = req })
			}
			return inner(req)
		}
	}
	if ts.shopAddr, err = ts.serve(h, tr != nil); err != nil {
		ts.close()
		return nil, err
	}
	return ts, nil
}

func (ts *tcpSite) clients() int { return len(ts.conns) }

// run executes body on every connection at once and waits for all of
// them. The daemons' clocks are independent, so the phase spans what the
// furthest-advanced plant kernel advanced; and the client has no virtual
// clock over tcp, so a creation's virtual latency is the production
// order's, from the creation log of the plant that built it
// (core.AttrCreateSecs is never set, and CreatedAt has 1 s resolution).
func (ts *tcpSite) run(body func(client int) error) (phase, error) {
	logged := ts.creationLogLens()
	v0 := ts.furthestKernel()
	errs := make([]error, len(ts.conns))
	var wg sync.WaitGroup
	for i := range ts.conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = body(i)
		}(i)
	}
	wg.Wait()
	ph := phase{virtSecs: (ts.furthestKernel() - v0).Seconds()}
	for i, d := range ts.plants {
		for _, cs := range d.pl.CreationLog()[logged[i]:] {
			ph.createVirt = append(ph.createVirt, cs.Total.Seconds())
		}
	}
	for _, err := range errs {
		if err != nil {
			return ph, err
		}
	}
	return ph, nil
}

func (ts *tcpSite) now(int) time.Duration { return 0 }

func (ts *tcpSite) boundary() (int, string) { return layerClient, "client." }

// spec is a 32/64/256 MB In-VIGO workspace, round-robin, with a user,
// MAC and address of the connection's own.
func (ts *tcpSite) spec(client, seq int) (*core.Spec, error) {
	n := (client+1)*lifecycleBase + seq
	g, err := workload.InVigoDAG(fmt.Sprintf("user%07d", n),
		fmt.Sprintf("00:50:56:%02x:%02x:%02x", (n>>16)&0xff, (n>>8)&0xff, n&0xff),
		fmt.Sprintf("10.%d.%d.%d", client+2, (seq/250)%250, seq%250+1))
	if err != nil {
		return nil, err
	}
	return &core.Spec{
		Hardware: core.HardwareSpec{Arch: "x86", MemoryMB: memorySizesMB[seq%len(memorySizesMB)], DiskMB: 2048},
		Domain:   "ufl.edu",
		Backend:  warehouse.BackendVMware,
		Graph:    g,
	}, nil
}

// create sends the specs one after another: the wire has no batch call.
func (ts *tcpSite) create(client int, specs []*core.Spec) []shop.BatchResult {
	out := make([]shop.BatchResult, len(specs))
	for i, spec := range specs {
		id, ad, err := ts.conns[client].Create(spec)
		out[i] = shop.BatchResult{Index: i, VMID: id, Ad: ad, Err: err}
	}
	return out
}

func (ts *tcpSite) query(client int, id core.VMID) (*classad.Ad, error) {
	return ts.conns[client].Query(id)
}

func (ts *tcpSite) destroy(client int, id core.VMID) error { return ts.conns[client].Destroy(id) }

func (ts *tcpSite) restart() (st shop.RestartStats, err error) {
	if derr := ts.shopRunner.Do("restart", func(p *sim.Proc) {
		ts.shop.Kill()
		st, err = ts.shop.Restart(p)
	}); derr != nil {
		return st, derr
	}
	return st, err
}

func (ts *tcpSite) journals() []*journal.Journal {
	js := []*journal.Journal{ts.shopJnl}
	for _, d := range ts.plants {
		js = append(js, d.jnl)
	}
	return js
}

func (ts *tcpSite) wire() wireCounts {
	return wireCounts{dials: float64(ts.dials.Load()), bytes: float64(ts.bytes.Load())}
}

func (ts *tcpSite) warehouse() *warehouse.Warehouse { return ts.plants[0].wh }

func (ts *tcpSite) micro(last *core.Spec) microInputs {
	return microInputs{spec: last, wh: ts.plants[0].wh, plantAd: ts.plants[0].pl.ResourceAd(),
		createMsg: ts.createMsg, shopJnl: ts.shopJnl}
}

// auditEmpty is site.auditEmpty for the daemons, run once they have
// stopped serving.
func (ts *tcpSite) auditEmpty(destroyed []core.VMID) error {
	for _, d := range ts.plants {
		for _, id := range destroyed {
			if _, found := d.pl.VM(id); found {
				return fmt.Errorf("VM %s still on plant %s after its destroy", id, d.pl.Name())
			}
		}
		if d.node.VMs() != 0 || d.node.CommittedMB() != 0 || d.pl.ActiveVMs() != 0 {
			return fmt.Errorf("plant %s: %d VMs, %d MB committed, %d active after teardown",
				d.pl.Name(), d.node.VMs(), d.node.CommittedMB(), d.pl.ActiveVMs())
		}
		if got := d.wh.ExtentStatsNow().Refs; got != d.refs {
			return fmt.Errorf("plant %s: extent refcounts %d, want the post-publish %d", d.pl.Name(), got, d.refs)
		}
	}
	return nil
}
