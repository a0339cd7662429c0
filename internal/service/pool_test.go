package service

import (
	"errors"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vmplants/internal/core"
	"vmplants/internal/proto"
	"vmplants/internal/shop"
	"vmplants/internal/sim"
)

// countingListener counts the connections a daemon accepted.
type countingListener struct {
	net.Listener
	accepted *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// restartable is a daemon the test can stop and start again on the
// same address, counting the connections it accepted across
// incarnations.
type restartable struct {
	t        *testing.T
	addr     string
	handler  proto.Handler
	accepted atomic.Int64
	stop     func()
}

func newRestartable(t *testing.T, h proto.Handler) *restartable {
	d := &restartable{t: t, addr: "127.0.0.1:0", handler: h}
	d.start()
	return d
}

func (d *restartable) start() {
	d.t.Helper()
	l, err := net.Listen("tcp", d.addr)
	if err != nil {
		d.t.Fatal(err)
	}
	d.addr = l.Addr().String()
	d.stop = serve(d.t, countingListener{l, &d.accepted}, d.handler)
}

// restartablePlant is a restartable plant daemon that also counts the
// estimates and creates it served.
type restartablePlant struct {
	*restartable
	estimates atomic.Int64
	creates   atomic.Int64
}

func newRestartablePlant(t *testing.T, name string, seed int64) *restartablePlant {
	t.Helper()
	d, pl := newTestPlant(t, name, seed)
	inner := NewPlantHandler(d.Runner, pl)
	rp := &restartablePlant{}
	rp.restartable = newRestartable(t, func(req *proto.Message) *proto.Message {
		switch req.Kind {
		case proto.KindEstimateRequest:
			rp.estimates.Add(1)
		case proto.KindCreateRequest:
			rp.creates.Add(1)
		}
		return inner(req)
	})
	return rp
}

func testSpec(t *testing.T) *core.Spec {
	t.Helper()
	spec, err := createReq(t).Spec()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// N sequential calls of every kind a plant handle makes travel on one
// connection.
func TestRemotePlantReusesOneConnection(t *testing.T) {
	d := newRestartablePlant(t, "p", 61)
	rp := &RemotePlant{PlantName: "p", Addr: d.addr, Timeout: 5 * time.Second}
	defer rp.Close()
	spec := testSpec(t)
	for i := 0; i < 5; i++ {
		id := core.VMID("vm-reuse-" + string(rune('a'+i)))
		if err := rp.Ping(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := rp.Estimate(nil, spec); err != nil {
			t.Fatal(err)
		}
		if _, err := rp.Create(nil, id, spec); err != nil {
			t.Fatal(err)
		}
		if _, found, err := rp.Query(nil, id); err != nil || !found {
			t.Fatalf("query: found=%v err=%v", found, err)
		}
		if err := rp.Lifecycle(nil, id, proto.LifecycleSuspend); err != nil {
			t.Fatal(err)
		}
		// An error response is an answer, not a broken connection.
		var remote *proto.RemoteError
		if err := rp.Lifecycle(nil, "no-such-vm", proto.LifecycleResume); !errors.As(err, &remote) {
			t.Fatalf("lifecycle of unknown VM: %v", err)
		}
		if err := rp.Lifecycle(nil, id, proto.LifecycleResume); err != nil {
			t.Fatal(err)
		}
		if ok, err := rp.Collect(nil, id); err != nil || !ok {
			t.Fatalf("collect = %v, %v", ok, err)
		}
	}
	if got := d.accepted.Load(); got != 1 {
		t.Errorf("plant accepted %d connections for 40 calls, want 1", got)
	}
}

// A plant daemon restarted between two creations costs a redial, not a
// failure: the stale connection is found before the second request is
// written, so the server sees each estimate and each create exactly
// once and the shop never hears of it: no creation fails.
func TestRemotePlantSurvivesDaemonRestart(t *testing.T) {
	d := newRestartablePlant(t, "p", 62)
	hub := NewDaemon("shop").Hub
	rp := &RemotePlant{PlantName: "p", Addr: d.addr, Timeout: 5 * time.Second}
	defer rp.Close()
	s := shop.New("shop", []shop.PlantHandle{rp}, 7)
	s.SetTelemetry(hub)
	r := NewRunner(sim.NewKernel())
	create := func() {
		t.Helper()
		var cerr error
		if err := r.Do("create", func(p *sim.Proc) { _, _, cerr = s.Create(p, testSpec(t)) }); err != nil {
			t.Fatal(err)
		}
		if cerr != nil {
			t.Fatal(cerr)
		}
	}
	create()
	d.stop()
	d.start()
	create()
	if got := d.estimates.Load(); got != 2 {
		t.Errorf("plant served %d estimates, want 2", got)
	}
	if got := d.creates.Load(); got != 2 {
		t.Errorf("plant served %d creates, want 2", got)
	}
	if got := d.accepted.Load(); got != 2 {
		t.Errorf("plant accepted %d connections, want 2 (one per incarnation)", got)
	}
	if got := hub.Counter("shop.create_failures").Value(); got != 0 {
		t.Errorf("shop counted %d failed creations", got)
	}

	// And once the daemon is gone for good, that is ErrPlantDown.
	d.stop()
	if err := rp.Ping(); !errors.Is(err, shop.ErrPlantDown) {
		t.Errorf("ping of a stopped daemon: %v, want ErrPlantDown", err)
	}
	if _, err := rp.Create(nil, "vm-x", testSpec(t)); !errors.Is(err, shop.ErrPlantDown) {
		t.Errorf("create on a stopped daemon: %v, want ErrPlantDown", err)
	}
	if got := d.creates.Load(); got != 2 {
		t.Errorf("plant served %d creates, want 2", got)
	}
}

// A plant that accepts a connection and never answers costs each call
// one timeout: the request is not sent again after its deadline, so the
// black hole reads exactly one.
func TestBlackHoleEstimateFailsAfterOneTimeout(t *testing.T) {
	for _, tc := range []struct {
		kind string
		call func(rp *RemotePlant) error
	}{
		{"estimate", func(rp *RemotePlant) error { _, _, err := rp.Estimate(nil, testSpec(t)); return err }},
		{"query", func(rp *RemotePlant) error { _, _, err := rp.Query(nil, "vm-x"); return err }},
		{"ping", (*RemotePlant).Ping},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			addr, read := blackHole(t)
			rp := &RemotePlant{PlantName: "hole", Addr: addr, Timeout: 200 * time.Millisecond}
			defer rp.Close()
			start := time.Now()
			err := tc.call(rp)
			took := time.Since(start)
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Errorf("%s from a plant that never answers: %v, want a deadline error", tc.kind, err)
			}
			if took >= 2*rp.Timeout {
				t.Errorf("the %s failed after %v, want under 2 × %v", tc.kind, took, rp.Timeout)
			}
			if got := read.Load(); got != 1 {
				t.Errorf("the black hole read %d requests, want 1", got)
			}
		})
	}
}

// blackHole listens on loopback, reads every request sent to it and
// answers none, counting what it read.
func blackHole(t *testing.T) (string, *atomic.Int64) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var read atomic.Int64
	var conns sync.WaitGroup
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			conns.Add(1)
			go func() {
				defer conns.Done()
				defer c.Close()
				for {
					if _, err := proto.ReadMessage(c); err != nil {
						return
					}
					read.Add(1)
				}
			}()
		}
	}()
	t.Cleanup(func() {
		l.Close()
		<-done
		conns.Wait()
	})
	return l.Addr().String(), &read
}

// A connection cut in the middle of a create's reply is an error to
// the caller and nothing more: the request is not sent again, and the
// next call starts on a fresh connection.
func TestRemotePlantNeverResendsACreate(t *testing.T) {
	checkGoroutines(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var accepted, creates atomic.Int64
	var conns sync.WaitGroup
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			conns.Add(1)
			go func() {
				defer conns.Done()
				defer conn.Close()
				for {
					req, err := proto.ReadMessage(conn)
					if err != nil {
						return
					}
					if req.Kind == proto.KindCreateRequest {
						creates.Add(1)
						conn.Write([]byte{0, 0, 1, 0, '<', 'm', 'e', 's'}) // a 256-byte frame, 4 bytes of it
						return
					}
					proto.WriteMessage(conn, &proto.Message{Kind: proto.KindPingResponse, Seq: req.Seq, Pong: &proto.PingResponse{Service: "p"}})
				}
			}()
		}
	}()
	defer func() {
		l.Close()
		<-done
		conns.Wait()
	}()

	rp := &RemotePlant{PlantName: "p", Addr: l.Addr().String(), Timeout: 5 * time.Second}
	defer rp.Close()
	if err := rp.Ping(); err != nil {
		t.Fatal(err)
	}
	if _, err := rp.Create(nil, "vm-cut", testSpec(t)); err == nil {
		t.Fatal("create whose reply was cut short succeeded")
	} else if errors.Is(err, shop.ErrPlantDown) {
		t.Errorf("in-flight failure reported as ErrPlantDown: %v", err)
	}
	if got := creates.Load(); got != 1 {
		t.Errorf("server saw %d creates, want exactly 1", got)
	}
	if err := rp.Ping(); err != nil {
		t.Fatalf("call after the cut: %v", err)
	}
	if got := accepted.Load(); got != 2 {
		t.Errorf("server accepted %d connections, want 2", got)
	}
}

// Two goroutines share one handle (run under -race).
func TestRemotePlantConcurrentCalls(t *testing.T) {
	d := newRestartablePlant(t, "p", 63)
	rp := &RemotePlant{PlantName: "p", Addr: d.addr, Timeout: 5 * time.Second}
	defer rp.Close()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := rp.Ping(); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := rp.Query(nil, "vm-none"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := d.accepted.Load(); got != 1 {
		t.Errorf("plant accepted %d connections, want 1", got)
	}
}

// cuttingProxy relays request/reply frames between its clients and the
// daemon at backend, except that the first reply of kind cut is not
// relayed: the proxy closes both connections in its place, after the
// daemon has acted on the request. It counts the requests it relayed
// per kind.
func cuttingProxy(t *testing.T, backend string, cut proto.Kind) (string, *sync.Map) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		relayed sync.Map // proto.Kind → *atomic.Int64
		cutDone atomic.Bool
		pairs   sync.WaitGroup
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			down, err := l.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", backend)
			if err != nil {
				down.Close()
				continue
			}
			pairs.Add(1)
			go func() {
				defer pairs.Done()
				defer up.Close()
				defer down.Close()
				for {
					req, err := proto.ReadMessage(down)
					if err != nil {
						return
					}
					n, _ := relayed.LoadOrStore(req.Kind, new(atomic.Int64))
					n.(*atomic.Int64).Add(1)
					if proto.WriteMessage(up, req) != nil {
						return
					}
					resp, err := proto.ReadMessage(up)
					if err != nil || resp.Kind == cut && cutDone.CompareAndSwap(false, true) {
						return
					}
					if proto.WriteMessage(down, resp) != nil {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() {
		l.Close()
		<-done
		pairs.Wait()
	})
	return l.Addr().String(), &relayed
}

// A forward-create whose reply is lost in flight is sent once more on a
// fresh connection, and the peer answers the resend from its dedupe
// index: the origin learns the VM the peer built, and the peer built
// one.
func TestForwardCreateResentOnceAfterALostReply(t *testing.T) {
	d, b, pl := newCellB(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serve(t, l, NewShopHandler(d.Runner, b))
	addr, relayed := cuttingProxy(t, l.Addr().String(), proto.KindForwardCreateResponse)
	rp := NewRemotePeer("b", addr, 5*time.Second, nil)
	defer rp.Close()

	fwd := *testSpec(t)
	fwd.Origin, fwd.RequestID = "a", "fwd-a-1"
	var (
		id   core.VMID
		cerr error
	)
	on(t, NewRunner(sim.NewKernel()))(func(p *sim.Proc) { id, _, cerr = rp.Create(p, &fwd) })
	if cerr != nil {
		t.Fatalf("forward whose first reply was cut: %v", cerr)
	}
	if n, _ := relayed.Load(proto.KindForwardCreateRequest); n == nil || n.(*atomic.Int64).Load() != 2 {
		t.Errorf("the proxy relayed %v forward-creates, want 2 (the first and its resend)", n)
	}
	var hosted int
	var peerID core.VMID
	on(t, d.Runner)(func(p *sim.Proc) {
		hosted = pl.ActiveVMs()
		peerID, _, _ = shop.ShopEnd{Shop: b}.LookupForward(p, "fwd-a-1")
	})
	if hosted != 1 {
		t.Errorf("the peer's plant hosts %d VMs, want 1", hosted)
	}
	if id == "" || id != peerID {
		t.Errorf("forward returned %q, the peer committed %q under the token", id, peerID)
	}
}

// A ShopClient finds the connection a restarted shop daemon closed
// before its next call, as every handle does, and dials afresh: the
// query succeeds and the daemon accepts one connection per incarnation.
func TestShopClientSurvivesShopRestart(t *testing.T) {
	plantAddr := startPlantDaemon(t, "p", 64)
	d := NewDaemon("shop")
	s := shop.New("shop", []shop.PlantHandle{&RemotePlant{PlantName: "p", Addr: plantAddr, Timeout: 5 * time.Second}}, 7)
	shopd := newRestartable(t, NewShopHandler(d.Runner, s))
	sc, err := DialShop(shopd.addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	id, _, err := sc.Create(testSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	shopd.stop()
	shopd.start()
	if _, err := sc.Query(id); err != nil {
		t.Errorf("query after the shop restarted: %v", err)
	}
	if got := shopd.accepted.Load(); got != 2 {
		t.Errorf("shop accepted %d connections, want 2 (one per incarnation)", got)
	}
}
