package proto

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"vmplants/internal/telemetry"
)

// RemoteError is a decoded error response from the peer. The request
// was delivered and answered — the failure is the answer — so the
// retry machinery never retries one.
type RemoteError struct {
	Code   string
	Detail string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("remote error %s: %s", e.Code, e.Detail)
}

// RetryPolicy bounds retransmission of idempotent requests
// (query/estimate/list/ping) after transport failures: exponential
// backoff from BaseBackoff doubling up to MaxBackoff, with a
// deterministic jitter stream seeded by Seed so identically configured
// clients replay identical schedules.
type RetryPolicy struct {
	// Attempts is the total number of tries (first call included);
	// 0 or 1 disables retry.
	Attempts int
	// BaseBackoff is the pause before the first retry; it doubles per
	// retry up to MaxBackoff (0 = no cap).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Jitter is the fraction of each backoff randomized, in [0, 1]: the
	// pause becomes backoff * (1 ± Jitter*u) for uniform u.
	Jitter float64
	// Seed drives the jitter stream.
	Seed int64
}

// backoffFor computes the pause before retry number retry (1-based).
func (rp RetryPolicy) backoffFor(retry int, rng *rand.Rand) time.Duration {
	d := rp.BaseBackoff
	for i := 1; i < retry; i++ {
		d *= 2
		if rp.MaxBackoff > 0 && d >= rp.MaxBackoff {
			d = rp.MaxBackoff
			break
		}
	}
	if rp.MaxBackoff > 0 && d > rp.MaxBackoff {
		d = rp.MaxBackoff
	}
	if rp.Jitter > 0 && d > 0 && rng != nil {
		d += time.Duration(float64(d) * rp.Jitter * (2*rng.Float64() - 1))
	}
	if d < 0 {
		d = 0
	}
	return d
}

// Client is a request/response connection to a VMPlants service. It is
// safe for concurrent use; requests are serialized on the stream and
// correlated by sequence number.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	in   frameReader // reads conn, keeping its buffer between responses
	addr string      // remote address, for error attribution
	seq  uint64
	// Timeout bounds each round trip (0 = no deadline).
	Timeout time.Duration
	// Retry bounds retransmission of idempotent requests after
	// transport failures; the zero value disables retry.
	Retry RetryPolicy

	retryRNG *rand.Rand // lazily seeded from Retry.Seed, under mu
	// redial re-establishes the connection between attempts.
	redial func() (net.Conn, error)
	// sleepFn pauses between attempts; time.Sleep unless a test
	// substitutes one.
	sleepFn func(time.Duration)

	// Telemetry instruments (nil-safe no-ops when unset).
	mCalls   *telemetry.Counter
	mErrors  *telemetry.Counter
	mRetries *telemetry.Counter
	hSecs    *telemetry.Histogram
	tracer   *telemetry.Tracer
}

// Dial connects to a service endpoint.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	d := net.Dialer{Timeout: timeout}
	conn, err := d.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("proto: dial %s: %w", addr, err)
	}
	c := &Client{conn: conn, in: frameReader{r: conn}, addr: addr, Timeout: timeout}
	c.redial = func() (net.Conn, error) { return d.Dial("tcp", addr) }
	return c, nil
}

// SetTelemetry wires the client's RPC instruments: call and error
// counters ("proto.rpc_calls", "proto.rpc_errors"), the wall-clock
// round-trip histogram ("proto.rpc_secs"), and the tracer per-call
// "rpc.<kind>" spans (with one "rpc.attempt" child per try) are
// recorded into. Passing nil detaches them.
func (c *Client) SetTelemetry(h *telemetry.Hub) {
	c.mCalls = h.Counter("proto.rpc_calls")
	c.mErrors = h.Counter("proto.rpc_errors")
	c.mRetries = h.Counter("proto.rpc_retries")
	c.hSecs = h.Histogram("proto.rpc_secs")
	c.tracer = h.T()
}

// RemoteAddr reports the peer's address ("" when unknown).
func (c *Client) RemoteAddr() string { return c.addr }

// Call sends m (stamping its Seq) and returns the response. A response
// whose Seq does not match is a protocol error. Errors carry the method
// (message kind) and remote address, so a failed RPC is attributable
// from the error text alone.
func (c *Client) Call(m *Message) (*Message, error) {
	resp, err := c.call(m)
	if err != nil {
		c.mErrors.Inc()
		return nil, fmt.Errorf("proto: rpc %s to %s: %w", m.Kind, c.addrLabel(), err)
	}
	return resp, nil
}

func (c *Client) addrLabel() string {
	if c.addr == "" {
		return "<unknown>"
	}
	return c.addr
}

func (c *Client) call(m *Message) (*Message, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	start := time.Now()
	defer func() {
		c.mCalls.Inc()
		c.hSecs.Observe(time.Since(start).Seconds())
	}()
	// The call span parents under the trace context stamped on the
	// envelope (if any), so a wall-clock RPC attaches to the virtual-time
	// creation tree that issued it. Guarded on the tracer so the
	// disabled path stays allocation-free.
	var sp *telemetry.Span
	if c.tracer != nil {
		sp = c.tracer.StartCtx(nil, "rpc."+string(m.Kind),
			telemetry.SpanContext{TraceID: m.TraceID, Span: m.ParentSpan}).
			Set("addr", c.addrLabel())
	}
	resp, err := c.tracedAttempt(sp, m, 1, 0, false)
	if err == nil || !c.shouldRetry(m.Kind, err) {
		sp.EndErr(nil, err)
		return resp, err
	}
	for retry := 1; retry < c.Retry.Attempts; retry++ {
		c.mRetries.Inc()
		backoff := c.Retry.backoffFor(retry, c.jitterRNG())
		c.pause(backoff)
		conn, derr := c.redial()
		if derr != nil {
			err = fmt.Errorf("redial: %w", derr)
			if sp != nil {
				sp.Child(nil, "rpc.attempt").
					SetInt("attempt", int64(retry+1)).
					Set("redial", "failed").
					EndErr(nil, err)
			}
			continue
		}
		c.conn.Close()
		c.conn = conn
		c.in = frameReader{r: conn, buf: c.in.buf}
		resp, err = c.tracedAttempt(sp, m, retry+1, backoff, true)
		if err == nil || !c.shouldRetry(m.Kind, err) {
			sp.EndErr(nil, err)
			return resp, err
		}
	}
	sp.EndErr(nil, err)
	return resp, err
}

// tracedAttempt runs one attempt under a per-attempt child span so a
// retried RPC decomposes into its tries — attempt number, the backoff
// that preceded it, and whether the connection was re-dialed — instead
// of reading as one opaque call.
func (c *Client) tracedAttempt(sp *telemetry.Span, m *Message, n int, backoff time.Duration, redialed bool) (*Message, error) {
	var at *telemetry.Span
	if sp != nil {
		at = sp.Child(nil, "rpc.attempt").SetInt("attempt", int64(n))
		if backoff > 0 {
			at.Set("backoff", backoff.String())
		}
		if redialed {
			at.Set("redial", "true")
		}
	}
	resp, err := c.attempt(m)
	at.EndErr(nil, err)
	return resp, err
}

// attempt performs one round trip under the client's lock. Each
// attempt is a fresh request with its own sequence number, so a reply
// to an abandoned earlier attempt can never be mistaken for the
// current one.
func (c *Client) attempt(m *Message) (*Message, error) {
	c.seq++
	m.Seq = c.seq
	if c.Timeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.Timeout))
	} else {
		// Clear any deadline a previous Timeout>0 call left on the
		// connection; without this, resetting Timeout to 0 would leave
		// the stale deadline ticking and fail some later call.
		c.conn.SetDeadline(time.Time{})
	}
	if err := WriteMessage(c.conn, m); err != nil {
		return nil, err
	}
	resp, err := c.in.next()
	if err != nil {
		return nil, err
	}
	if resp.Seq != m.Seq {
		return nil, fmt.Errorf("response seq %d for request %d", resp.Seq, m.Seq)
	}
	if resp.Kind == KindError {
		return nil, &RemoteError{Code: resp.Err.Code, Detail: resp.Err.Detail}
	}
	return resp, nil
}

// idempotentKinds are the requests safe to retransmit: re-asking never
// changes service state. Create/destroy/publish/lifecycle are not —
// the first attempt may have been applied before its reply was lost.
// Forward-create is the exception among mutating kinds: its embedded
// RequestID is a deterministic forwarding token journaled by the peer
// shop, so a retransmission is answered from the peer's dedupe index
// rather than applied twice.
var idempotentKinds = map[Kind]bool{
	KindQueryRequest:         true,
	KindEstimateRequest:      true,
	KindListRequest:          true,
	KindPingRequest:          true,
	KindForwardCreateRequest: true,
}

// shouldRetry reports whether a failed attempt of the given kind is
// worth retransmitting under the client's policy.
func (c *Client) shouldRetry(kind Kind, err error) bool {
	if c.Retry.Attempts <= 1 || !idempotentKinds[kind] {
		return false
	}
	var remote *RemoteError
	return !errors.As(err, &remote)
}

func (c *Client) jitterRNG() *rand.Rand {
	if c.Retry.Jitter <= 0 {
		return nil
	}
	if c.retryRNG == nil {
		c.retryRNG = rand.New(rand.NewSource(c.Retry.Seed))
	}
	return c.retryRNG
}

func (c *Client) pause(d time.Duration) {
	if d <= 0 {
		return
	}
	if c.sleepFn != nil {
		c.sleepFn(d)
		return
	}
	time.Sleep(d)
}

// SetSleepFunc substitutes the pause between retry attempts — tests
// use it to record the backoff schedule instead of sleeping.
func (c *Client) SetSleepFunc(fn func(time.Duration)) { c.sleepFn = fn }

// Close closes the underlying connection.
func (c *Client) Close() error { return c.conn.Close() }

// Stale reports whether the connection, idle between calls, can no
// longer carry one: the peer has closed or reset it (a daemon that
// restarted since the last call), or sent bytes nobody asked for. A
// caller that keeps a client across calls checks before each one and
// dials afresh instead of writing a request into a dead connection —
// a request that was never written is not retransmitted by being
// written elsewhere.
func (c *Client) Stale() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	// The last call's deadline may have passed since; expired, it would
	// fail the check on a healthy connection.
	c.conn.SetReadDeadline(time.Time{})
	return connCheck(c.conn) != nil
}

// Handler processes one request message and returns the response. The
// returned message's Seq is overwritten with the request's.
type Handler func(*Message) *Message

// Serve accepts connections on l until it is closed, running each
// connection's request loop in its own goroutine. When Accept fails it
// closes the connections still open — their peers may hold them between
// calls indefinitely — and returns once every request loop has.
func Serve(l net.Listener, h Handler) {
	var (
		mu    sync.Mutex
		open  = make(map[net.Conn]struct{})
		loops sync.WaitGroup
	)
	for {
		conn, err := l.Accept()
		if err != nil {
			break
		}
		mu.Lock()
		open[conn] = struct{}{}
		mu.Unlock()
		loops.Add(1)
		go func() {
			defer loops.Done()
			ServeConn(conn, h)
			mu.Lock()
			delete(open, conn)
			mu.Unlock()
		}()
	}
	mu.Lock()
	for conn := range open {
		conn.Close()
	}
	mu.Unlock()
	loops.Wait()
}

// ServeConn runs the request loop for one connection. A frame that
// does not decode — an unknown kind, a malformed body — is answered
// with a bad-request error on the seq it carried.
func ServeConn(conn net.Conn, h Handler) {
	defer conn.Close()
	in := frameReader{r: conn}
	for {
		req, err := in.next()
		var resp *Message
		switch err.(type) {
		case nil:
			if resp = safeHandle(h, req); resp == nil {
				resp = Errorf(req.Seq, CodeInternal, "handler returned no response")
			}
		case badFrame:
			if req == nil {
				req = &Message{}
			}
			resp = Errorf(req.Seq, CodeBadRequest, "%v", err)
		default:
			return
		}
		resp.Seq = req.Seq
		if err := WriteMessage(conn, resp); err != nil {
			return
		}
	}
}

// safeHandle isolates handler panics into error responses so one bad
// request cannot kill the connection loop silently.
func safeHandle(h Handler, req *Message) (resp *Message) {
	defer func() {
		if r := recover(); r != nil {
			resp = Errorf(req.Seq, CodeInternal, "panic: %v", r)
		}
	}()
	return h(req)
}
