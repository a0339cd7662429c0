package proto

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"vmplants/internal/telemetry"
)

// droppingServer answers ping requests, except that it kills the
// connection of each of the first drops requests it reads instead of
// answering. It reports how many requests it read.
func droppingServer(t *testing.T, drops int64) (net.Listener, *atomic.Int64) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	var read atomic.Int64
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				for {
					req, err := ReadMessage(conn)
					if err != nil {
						return
					}
					if read.Add(1) <= drops {
						return // drop the connection instead of answering
					}
					WriteMessage(conn, &Message{Kind: KindPingResponse, Seq: req.Seq, Pong: &PingResponse{Service: "plant"}})
				}
			}(conn)
		}
	}()
	return l, &read
}

func ping() *Message { return &Message{Kind: KindPingRequest, Ping: &PingRequest{}} }

// A call that breaks at the transport gives up after its one attempt:
// the error comes back at once, the server read the request once, and
// the call counts one proto.rpc_errors.
func TestRetryGivesUpAfterAttempts(t *testing.T) {
	l, read := droppingServer(t, 1000)
	c, err := Dial(l.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hub := telemetry.New()
	c.SetTelemetry(hub)
	if _, err := c.Call(ping()); err == nil {
		t.Fatal("call succeeded against a dead server")
	}
	if got := read.Load(); got != 1 {
		t.Errorf("server read %d requests, want 1", got)
	}
	if got := hub.Counter("proto.rpc_errors").Value(); got != 1 {
		t.Errorf("proto.rpc_errors = %d, want 1", got)
	}
}

// TestRetrySpans pins the call span's shape: a call records one root
// rpc.<kind> span and nothing under it, whether it is answered or its
// connection is dropped; only the dropped one carries an error.
func TestRetrySpans(t *testing.T) {
	for _, tc := range []struct {
		drops  int64
		failed bool
	}{
		{0, false},
		{1, true},
	} {
		l, _ := droppingServer(t, tc.drops)
		c, err := Dial(l.Addr().String(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		hub := telemetry.New()
		c.SetTelemetry(hub)
		_, err = c.Call(ping())
		c.Close()
		if (err != nil) != tc.failed {
			t.Fatalf("%d dropped: err = %v, want failed %v", tc.drops, err, tc.failed)
		}
		spans := hub.T().Spans()
		if len(spans) != 1 {
			t.Fatalf("%d dropped: %d spans, want the call's one", tc.drops, len(spans))
		}
		if s := spans[0]; s.Name != "rpc.ping-request" || s.Parent != 0 || (s.Err != "") != tc.failed {
			t.Errorf("%d dropped: span %q under %d with error %q, want a root rpc.ping-request, failed %v", tc.drops, s.Name, s.Parent, s.Err, tc.failed)
		}
	}
}

// A mutating request whose connection breaks is not sent again either.
func TestNonIdempotentRequestsNeverRetried(t *testing.T) {
	l, read := droppingServer(t, 1000)
	c, err := Dial(l.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Call(&Message{Kind: KindDestroyRequest, Destroy: &DestroyRequest{VMID: "vm-1"}})
	if err == nil {
		t.Fatal("destroy succeeded against a dead server")
	}
	if got := read.Load(); got != 1 {
		t.Errorf("server read the destroy %d times, want 1", got)
	}
}

func TestRemoteErrorsNeverRetried(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	var served int64
	go Serve(l, func(req *Message) *Message {
		atomic.AddInt64(&served, 1)
		return Errorf(req.Seq, CodeNotFound, "no such VM")
	})
	c, err := Dial(l.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Call(&Message{Kind: KindQueryRequest, Query: &QueryRequest{VMID: "vm-x"}})
	if err == nil {
		t.Fatal("expected remote error")
	}
	var remote *RemoteError
	if !errors.As(err, &remote) || remote.Code != CodeNotFound {
		t.Fatalf("err = %v, want RemoteError %s", err, CodeNotFound)
	}
	if got := atomic.LoadInt64(&served); got != 1 {
		t.Errorf("delivered-and-answered request retried: served %d times", got)
	}
}

// Satellite regression: resetting Timeout to 0 must clear the deadline
// a previous Timeout>0 call set, or a later slow-but-healthy exchange
// fails on the stale deadline.
func TestTimeoutResetClearsStaleDeadline(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	var nth int64
	go Serve(l, func(req *Message) *Message {
		if atomic.AddInt64(&nth, 1) > 1 {
			// Slower than the first call's deadline, which — unless
			// cleared — is still armed on the shared connection.
			time.Sleep(150 * time.Millisecond)
		}
		return &Message{Kind: KindPingResponse, Pong: &PingResponse{Service: "plant"}}
	})
	c, err := Dial(l.Addr().String(), 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(ping()); err != nil {
		t.Fatalf("fast first call: %v", err)
	}
	c.Timeout = 0
	if _, err := c.Call(ping()); err != nil {
		t.Fatalf("call with Timeout reset to 0 failed on a stale deadline: %v", err)
	}
}
