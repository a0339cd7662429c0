package proto

import (
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"vmplants/internal/telemetry"
)

// RemoteError is a decoded error response from the peer. The request
// was delivered and answered: the failure is the answer.
type RemoteError struct {
	Code   string
	Detail string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("remote error %s: %s", e.Code, e.Detail)
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

	idle *idleCheck // Stale's check of conn, made at its first use on it

	// Telemetry instruments (nil-safe no-ops when unset).
	mCalls  *telemetry.Counter
	mErrors *telemetry.Counter
	hSecs   *telemetry.Histogram
	tracer  *telemetry.Tracer
}

// Dial connects to a service endpoint.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	d := net.Dialer{Timeout: timeout}
	conn, err := d.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("proto: dial %s: %w", addr, err)
	}
	return &Client{conn: conn, in: frameReader{r: conn}, addr: addr, Timeout: timeout}, nil
}

// SetTelemetry wires the client's RPC instruments: call and error
// counters ("proto.rpc_calls", "proto.rpc_errors"), the wall-clock
// round-trip histogram ("proto.rpc_secs"), and the tracer per-call
// "rpc.<kind>" spans are recorded into. Passing nil detaches them.
func (c *Client) SetTelemetry(h *telemetry.Hub) {
	c.mCalls = h.Counter("proto.rpc_calls")
	c.mErrors = h.Counter("proto.rpc_errors")
	c.hSecs = h.Histogram("proto.rpc_secs")
	c.tracer = h.T()
}

// spanNames holds each kind's call span name, in bodyNames order.
var spanNames = func() []string {
	names := make([]string, len(bodyNames))
	for i, k := range bodyNames {
		names[i] = "rpc." + k
	}
	return names
}()

// spanName names the call span of a request of kind k.
func spanName(k Kind) string {
	if i := slices.Index(bodyNames, string(k)); i >= 0 {
		return spanNames[i]
	}
	return "rpc." + string(k)
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
		sp = c.tracer.StartCtx(nil, spanName(m.Kind),
			telemetry.SpanContext{TraceID: m.TraceID, Span: m.ParentSpan}).
			Set("addr", c.addrLabel())
	}
	resp, err := c.attempt(m)
	sp.EndErr(nil, err)
	return resp, err
}

// attempt performs one round trip under the client's lock. Each
// request gets its own sequence number, so a reply to an abandoned
// earlier request can never be mistaken for the current one.
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

// Close closes the underlying connection.
func (c *Client) Close() error { return c.conn.Close() }

// Stale reports whether the connection, idle between calls, can no
// longer carry one: the peer has closed or reset it (a daemon that
// restarted since the last call), or sent bytes nobody asked for. A
// caller that keeps a client across calls checks before each one and
// dials afresh instead of writing a request into a dead connection.
func (c *Client) Stale() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	// The last call's deadline may have passed since; expired, it would
	// fail the check on a healthy connection.
	c.conn.SetReadDeadline(time.Time{})
	if c.idle == nil || c.idle.conn != c.conn {
		c.idle = newIdleCheck(c.conn)
	}
	return c.idle.check() != nil
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
