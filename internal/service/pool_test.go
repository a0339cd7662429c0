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
	"vmplants/internal/telemetry"
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

// restartablePlant is a plant daemon the test can stop and start again
// on the same address, counting what it accepted and served across
// incarnations.
type restartablePlant struct {
	t         *testing.T
	addr      string
	handler   proto.Handler
	accepted  atomic.Int64
	estimates atomic.Int64
	creates   atomic.Int64
	stop      func()
}

func newRestartablePlant(t *testing.T, name string, seed int64) *restartablePlant {
	t.Helper()
	d, pl := newTestPlant(t, name, seed)
	inner := NewPlantHandler(d.Runner, pl)
	rp := &restartablePlant{t: t, addr: "127.0.0.1:0"}
	rp.handler = func(req *proto.Message) *proto.Message {
		switch req.Kind {
		case proto.KindEstimateRequest:
			rp.estimates.Add(1)
		case proto.KindCreateRequest:
			rp.creates.Add(1)
		}
		return inner(req)
	}
	rp.start()
	return rp
}

func (rp *restartablePlant) start() {
	rp.t.Helper()
	l, err := net.Listen("tcp", rp.addr)
	if err != nil {
		rp.t.Fatal(err)
	}
	rp.addr = l.Addr().String()
	rp.stop = serve(rp.t, countingListener{l, &rp.accepted}, rp.handler)
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

// A plant that accepts a connection and never answers costs a bidding
// round one timeout: the estimate is not sent again after its deadline
// (it was, twice, with DefaultRetry's backoff between the tries).
func TestBlackHoleEstimateFailsAfterOneTimeout(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu   sync.Mutex
		held []net.Conn
	)
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, c)
			mu.Unlock()
		}
	}()
	defer func() {
		l.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range held {
			c.Close()
		}
	}()
	hub := telemetry.New()
	rp := &RemotePlant{PlantName: "hole", Addr: l.Addr().String(), Timeout: 200 * time.Millisecond, Telemetry: hub}
	defer rp.Close()
	start := time.Now()
	_, _, err = rp.Estimate(nil, testSpec(t))
	took := time.Since(start)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("estimate from a plant that never answers: %v, want a deadline error", err)
	}
	if took >= 2*rp.Timeout {
		t.Errorf("the estimate failed after %v, want under 2 × %v", took, rp.Timeout)
	}
	if got := hub.Counter("proto.rpc_retries").Value(); got != 0 {
		t.Errorf("proto.rpc_retries = %d, want 0", got)
	}
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
