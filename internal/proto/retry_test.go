package proto

import (
	"errors"
	"net"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"vmplants/internal/telemetry"
)

// flakyServer answers ping requests, but each connection's first
// failRemaining requests are killed at the transport (connection
// closed mid-exchange), forcing the client to redial and retry.
func flakyServer(t *testing.T, failTotal int64) (net.Listener, *int64) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	var remaining = failTotal
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
					if atomic.AddInt64(&remaining, -1) >= 0 {
						return // drop the connection instead of answering
					}
					WriteMessage(conn, &Message{Kind: KindPingResponse, Seq: req.Seq, Pong: &PingResponse{Service: "plant"}})
				}
			}(conn)
		}
	}()
	return l, &remaining
}

func ping() *Message { return &Message{Kind: KindPingRequest, Ping: &PingRequest{}} }

func TestRetryRecoversFromTransportFailure(t *testing.T) {
	l, _ := flakyServer(t, 2)
	c, err := Dial(l.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Retry = RetryPolicy{Attempts: 4, BaseBackoff: time.Millisecond}
	hub := telemetry.New()
	c.SetTelemetry(hub)
	resp, err := c.Call(ping())
	if err != nil {
		t.Fatalf("call with retry: %v", err)
	}
	if resp.Pong == nil || resp.Pong.Service != "plant" {
		t.Fatalf("resp = %+v", resp)
	}
	if got := hub.Counter("proto.rpc_retries").Value(); got != 2 {
		t.Errorf("rpc_retries = %d, want 2", got)
	}
}

func TestRetryGivesUpAfterAttempts(t *testing.T) {
	l, _ := flakyServer(t, 1000)
	c, err := Dial(l.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Retry = RetryPolicy{Attempts: 3, BaseBackoff: time.Millisecond}
	var pauses int
	c.SetSleepFunc(func(time.Duration) { pauses++ })
	if _, err := c.Call(ping()); err == nil {
		t.Fatal("call succeeded against a dead server")
	}
	if pauses != 2 {
		t.Errorf("%d pauses for 3 attempts, want 2", pauses)
	}
}

func TestNonIdempotentRequestsNeverRetried(t *testing.T) {
	l, _ := flakyServer(t, 1000)
	c, err := Dial(l.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Retry = RetryPolicy{Attempts: 5, BaseBackoff: time.Millisecond}
	var pauses int
	c.SetSleepFunc(func(time.Duration) { pauses++ })
	_, err = c.Call(&Message{Kind: KindDestroyRequest, Destroy: &DestroyRequest{VMID: "vm-1"}})
	if err == nil {
		t.Fatal("destroy succeeded against a dead server")
	}
	if pauses != 0 {
		t.Errorf("non-idempotent request was retried %d times", pauses)
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
	c.Retry = RetryPolicy{Attempts: 5, BaseBackoff: time.Millisecond}
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

func TestBackoffScheduleDoublesToCap(t *testing.T) {
	rp := RetryPolicy{Attempts: 6, BaseBackoff: 50 * time.Millisecond, MaxBackoff: 300 * time.Millisecond}
	want := []time.Duration{
		50 * time.Millisecond,
		100 * time.Millisecond,
		200 * time.Millisecond,
		300 * time.Millisecond,
		300 * time.Millisecond,
	}
	for i, w := range want {
		if got := rp.backoffFor(i+1, nil); got != w {
			t.Errorf("backoffFor(%d) = %s, want %s", i+1, got, w)
		}
	}
}

func TestBackoffJitterDeterministicPerSeed(t *testing.T) {
	schedule := func(seed int64) []time.Duration {
		l, _ := flakyServer(t, 1000)
		c, err := Dial(l.Addr().String(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.Retry = RetryPolicy{Attempts: 4, BaseBackoff: 80 * time.Millisecond, Jitter: 0.5, Seed: seed}
		var out []time.Duration
		c.SetSleepFunc(func(d time.Duration) { out = append(out, d) })
		c.Call(ping())
		return out
	}
	a, b := schedule(9), schedule(9)
	if len(a) != 3 {
		t.Fatalf("%d pauses, want 3", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at pause %d: %s vs %s", i, a[i], b[i])
		}
		base := 80 * time.Millisecond << i
		if a[i] == base {
			t.Errorf("pause %d = exactly %s; jitter not applied", i, base)
		}
	}
	if c := schedule(10); c[0] == a[0] && c[1] == a[1] && c[2] == a[2] {
		t.Error("different seeds produced identical jitter")
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

// TestRetrySpans pins the call span's shape: a call answered on its
// first try records one span and no attempt spans; a call retried twice
// records its three tries as attempts 1, 2 and 3 inside the call span.
func TestRetrySpans(t *testing.T) {
	for _, tc := range []struct {
		drops    int64
		attempts []string
	}{
		{0, nil},
		{2, []string{"1", "2", "3"}},
	} {
		l, _ := flakyServer(t, tc.drops)
		c, err := Dial(l.Addr().String(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		c.Retry = RetryPolicy{Attempts: 4, BaseBackoff: time.Millisecond}
		hub := telemetry.New()
		c.SetTelemetry(hub)
		if _, err := c.Call(ping()); err != nil {
			t.Fatalf("%d dropped: %v", tc.drops, err)
		}
		c.Close()
		spans := hub.T().Spans()
		call := spans[len(spans)-1]
		if call.Name != "rpc.ping-request" || call.Parent != 0 {
			t.Fatalf("%d dropped: last span %q under %d, want the root rpc.ping-request", tc.drops, call.Name, call.Parent)
		}
		var attempts []string
		for _, s := range spans[:len(spans)-1] {
			if s.Name != "rpc.attempt" || s.Parent != call.ID {
				t.Errorf("%d dropped: span %q under %d, want rpc.attempt under %d", tc.drops, s.Name, s.Parent, call.ID)
			}
			if s.WStart.Before(call.WStart) || s.WEnd.After(call.WEnd) {
				t.Errorf("%d dropped: attempt %s runs %v–%v, outside its call's %v–%v", tc.drops, s.Attr("attempt"), s.WStart, s.WEnd, call.WStart, call.WEnd)
			}
			attempts = append(attempts, s.Attr("attempt"))
		}
		if !slices.Equal(attempts, tc.attempts) {
			t.Errorf("%d dropped: attempts %v, want %v", tc.drops, attempts, tc.attempts)
		}
	}
}
