// Package proto defines the XML message protocol spoken between VMShop
// clients, the VMShop, and VMPlants (paper §4.1: "Services requested by
// VMShop clients are specified as XML strings"; §3.1: the shop↔plant
// binding protocol "uses XML-based requests").
//
// Messages are XML documents framed with a 4-byte big-endian length
// prefix, carried over net.Conn streams between the daemons and their
// clients. The simulated transports the experiments use
// (shop.LocalHandle, shop.LocalPeerHandle) exchange no messages: they
// call the same shop.PlantEnd / shop.ShopEnd the daemons' handlers
// serve from, and internal/service's parity test holds the two paths to
// the same outcomes.
//
// The struct tags below define the format, and the bytes are what
// encoding/xml makes of them — but Marshal and Unmarshal do not go
// through encoding/xml: codec.go writes each body with an append-style
// encoder and reads it with internal/xmlwire's scanner, and the tests
// hold both to encoding/xml as their oracle. The decoder reads a subset
// of XML: elements, attributes in either quote, character data with the
// five named entities and numeric character references, self-closing
// tags, comments, and a leading <?xml ... ?> declaration; unknown
// elements and attributes are skipped, which is how the envelope stays
// backward compatible. Anything else — DOCTYPE, CDATA, namespaces,
// text between child elements, a scalar element given twice or holding
// markup, nesting past the grammar — is an error rather than a guess:
// the decoder may refuse what encoding/xml would read, never the
// reverse.
package proto

import (
	"encoding/binary"
	"encoding/xml"
	"fmt"
	"io"
	"slices"
	"sync"

	"vmplants/internal/classad"
	"vmplants/internal/core"
	"vmplants/internal/dag"
)

// MaxMessageSize bounds a framed message (DAGs and classads are small;
// anything larger is a protocol error, not a workload).
const MaxMessageSize = 4 << 20

// Kind discriminates message types on the wire.
type Kind string

// Message kinds.
const (
	KindCreateRequest         Kind = "create-request"
	KindCreateResponse        Kind = "create-response"
	KindBatchCreateRequest    Kind = "batch-create-request"
	KindBatchCreateResponse   Kind = "batch-create-response"
	KindQueryRequest          Kind = "query-request"
	KindQueryResponse         Kind = "query-response"
	KindDestroyRequest        Kind = "destroy-request"
	KindDestroyResponse       Kind = "destroy-response"
	KindEstimateRequest       Kind = "estimate-request"
	KindEstimateResponse      Kind = "estimate-response"
	KindForwardCreateRequest  Kind = "forward-create-request"
	KindForwardCreateResponse Kind = "forward-create-response"
	KindPublishRequest        Kind = "publish-request"
	KindPublishResponse       Kind = "publish-response"
	KindLifecycleRequest      Kind = "lifecycle-request"
	KindLifecycleResponse     Kind = "lifecycle-response"
	KindListRequest           Kind = "list-request"
	KindListResponse          Kind = "list-response"
	KindPingRequest           Kind = "ping-request"
	KindPingResponse          Kind = "ping-response"
	KindError                 Kind = "error"
)

// Message is the envelope: exactly one of the pointers is non-nil,
// matching Kind.
type Message struct {
	XMLName xml.Name `xml:"message"`
	Kind    Kind     `xml:"kind,attr"`
	Seq     uint64   `xml:"seq,attr"` // request/response correlation
	// Trace context: the caller's trace ID and the span the callee's
	// work should parent under, so causality survives the process
	// boundary. Zero values mean "untraced" and are omitted from the
	// wire format, keeping the envelope backward compatible.
	TraceID        uint64                 `xml:"trace,attr,omitempty"`
	ParentSpan     uint64                 `xml:"span,attr,omitempty"`
	Create         *CreateRequest         `xml:"create-request"`
	Created        *CreateResponse        `xml:"create-response"`
	BatchCreate    *BatchCreateRequest    `xml:"batch-create-request"`
	BatchCreated   *BatchCreateResponse   `xml:"batch-create-response"`
	Query          *QueryRequest          `xml:"query-request"`
	Queried        *QueryResponse         `xml:"query-response"`
	Destroy        *DestroyRequest        `xml:"destroy-request"`
	Destroyed      *DestroyResponse       `xml:"destroy-response"`
	Estimate       *EstimateRequest       `xml:"estimate-request"`
	Bid            *EstimateResponse      `xml:"estimate-response"`
	ForwardCreate  *ForwardCreateRequest  `xml:"forward-create-request"`
	ForwardCreated *ForwardCreateResponse `xml:"forward-create-response"`
	Publish        *PublishRequest        `xml:"publish-request"`
	Published      *PublishResponse       `xml:"publish-response"`
	Lifecycle      *LifecycleRequest      `xml:"lifecycle-request"`
	Lifecycled     *LifecycleResponse     `xml:"lifecycle-response"`
	List           *ListRequest           `xml:"list-request"`
	Listed         *ListResponse          `xml:"list-response"`
	Ping           *PingRequest           `xml:"ping-request"`
	Pong           *PingResponse          `xml:"ping-response"`
	Err            *ErrorResponse         `xml:"error"`
}

// CreateRequest asks for a new VM built to a specification. VMID is
// empty on the client→shop leg; the shop mints it and sets it on the
// shop→plant leg.
type CreateRequest struct {
	VMID string `xml:"vmid,omitempty"`
	// RequestID is the client's idempotency token (core.Spec.RequestID):
	// a shop that journaled a committed creation under this token answers
	// a retransmission with the original VMID instead of building twice.
	RequestID string `xml:"request-id,omitempty"`
	Name      string `xml:"name"`
	Arch      string `xml:"hardware>arch"`
	MemoryMB  int    `xml:"hardware>memoryMB"`
	DiskMB    int    `xml:"hardware>diskMB"`
	Domain    string `xml:"network>domain"`
	ProxyAddr string `xml:"network>proxy,omitempty"`
	Token     string `xml:"network>token,omitempty"`
	// Origin names the shop cell that re-auctioned this request across
	// the federation (empty on client-originated requests). A shop never
	// forwards a request that already carries an origin.
	Origin  string     `xml:"origin,omitempty"`
	Backend string     `xml:"backend,omitempty"`
	Reqs    string     `xml:"requirements,omitempty"`
	Graph   *dag.Graph `xml:"dag"`
}

// Spec converts the wire request to the domain type, validating it.
func (r *CreateRequest) Spec() (*core.Spec, error) {
	s := &core.Spec{
		Name:         r.Name,
		Hardware:     core.HardwareSpec{Arch: r.Arch, MemoryMB: r.MemoryMB, DiskMB: r.DiskMB},
		Domain:       r.Domain,
		ProxyAddr:    r.ProxyAddr,
		Backend:      r.Backend,
		Requirements: r.Reqs,
		RequestID:    r.RequestID,
		Origin:       r.Origin,
		Graph:        r.Graph,
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// FromSpec builds the wire request from the domain type.
func FromSpec(s *core.Spec, token string) *CreateRequest {
	return &CreateRequest{
		RequestID: s.RequestID,
		Name:      s.Name,
		Arch:      s.Hardware.Arch,
		MemoryMB:  s.Hardware.MemoryMB,
		DiskMB:    s.Hardware.DiskMB,
		Domain:    s.Domain,
		ProxyAddr: s.ProxyAddr,
		Token:     token,
		Origin:    s.Origin,
		Backend:   s.Backend,
		Reqs:      s.Requirements,
		Graph:     s.Graph,
	}
}

// CreateResponse returns the new VM's classad (paper §3.1: "the client
// obtains in return a classad").
type CreateResponse struct {
	VMID string      `xml:"vmid"`
	Ad   *classad.Ad `xml:"classad"`
}

// BatchCreateRequest submits a batch of creation requests in one call;
// the shop drives them through its concurrent pipeline and answers when
// every request has an outcome. Not idempotent — like create-request,
// it is never retransmitted.
type BatchCreateRequest struct {
	Items []CreateRequest `xml:"items>create-request"`
}

// BatchCreateItem is one request's outcome within a batch: either a
// VMID with its classad, or an error string.
type BatchCreateItem struct {
	VMID string      `xml:"vmid,omitempty"`
	Ad   *classad.Ad `xml:"classad,omitempty"`
	Err  string      `xml:"error,omitempty"`
}

// BatchCreateResponse returns per-request outcomes in request order.
type BatchCreateResponse struct {
	Items []BatchCreateItem `xml:"items>item"`
}

// QueryRequest asks for an active VM's classad.
type QueryRequest struct {
	VMID string `xml:"vmid"`
}

// QueryResponse carries the classad, or Found=false.
type QueryResponse struct {
	VMID  string      `xml:"vmid"`
	Found bool        `xml:"found"`
	Ad    *classad.Ad `xml:"classad"`
}

// DestroyRequest collects an active VM.
type DestroyRequest struct {
	VMID string `xml:"vmid"`
}

// DestroyResponse acknowledges collection.
type DestroyResponse struct {
	VMID      string `xml:"vmid"`
	Destroyed bool   `xml:"destroyed"`
}

// EstimateRequest asks a plant to bid on a creation (shop→plant only).
type EstimateRequest struct {
	Create *CreateRequest `xml:"create-request"`
}

// EstimateResponse is a plant's bid. Cost < 0 means the plant cannot
// satisfy the request.
type EstimateResponse struct {
	Plant string      `xml:"plant"`
	Cost  float64     `xml:"cost"`
	Ad    *classad.Ad `xml:"classad"` // the plant's resource classad
}

// ForwardCreateRequest re-auctions a creation from one shop cell to a
// peer shop (hierarchical bidding). The embedded create-request carries
// the forwarding token as its RequestID — a deterministic function of
// the origin cell's intent, so a cross-cell retransmission after a
// timeout or crash dedupes against the peer's journal instead of
// building a second VM. Safe to retransmit for exactly that reason.
type ForwardCreateRequest struct {
	// Origin names the forwarding cell (also stamped on the embedded
	// request's origin field); peers refuse to forward further.
	Origin string         `xml:"origin"`
	Create *CreateRequest `xml:"create-request,omitempty"`
	// Probe, when true, turns the request into a non-creating lookup of
	// Token against the peer's dedupe journal (Create is omitted): the
	// origin's restart reconciliation asking "did my forward land?"
	// without risking a duplicate VM.
	Probe bool   `xml:"probe,omitempty"`
	Token string `xml:"token,omitempty"`
}

// ForwardCreateResponse returns the peer-minted VMID and classad of a
// creation served on behalf of another cell. For probes, Found reports
// whether the peer committed a creation under the token (false is
// authoritative: no VM exists there) and Ad is omitted.
type ForwardCreateResponse struct {
	VMID  string      `xml:"vmid"`
	Ad    *classad.Ad `xml:"classad,omitempty"`
	Found bool        `xml:"found,omitempty"`
}

// PublishRequest checkpoints an active VM and publishes it to the VM
// Warehouse as a new golden image (paper §3.2 installer workflow).
type PublishRequest struct {
	VMID  string `xml:"vmid"`
	Image string `xml:"image"`
}

// PublishResponse acknowledges publication.
type PublishResponse struct {
	VMID  string `xml:"vmid"`
	Image string `xml:"image"`
}

// Lifecycle operations.
const (
	LifecycleSuspend = "suspend"
	LifecycleResume  = "resume"
)

// LifecycleRequest suspends or resumes an active VM (In-VIGO parks idle
// virtual workspaces and resumes them on access).
type LifecycleRequest struct {
	VMID string `xml:"vmid"`
	Op   string `xml:"op"` // LifecycleSuspend or LifecycleResume
}

// LifecycleResponse acknowledges a lifecycle transition.
type LifecycleResponse struct {
	VMID  string `xml:"vmid"`
	State string `xml:"state"`
}

// ListRequest asks a plant for its VM inventory — the shop's recovery
// sweep rebuilds routing soft state from the answers.
type ListRequest struct{}

// ListResponse enumerates the plant's active VMs.
type ListResponse struct {
	Plant string   `xml:"plant"`
	VMIDs []string `xml:"vmids>vmid"`
}

// PingRequest is a liveness probe: the cheapest idempotent request,
// used by retry probes and circuit-breaker half-open checks.
type PingRequest struct{}

// PingResponse acknowledges liveness.
type PingResponse struct {
	Service string `xml:"service"`
}

// ErrorResponse reports a failed request.
type ErrorResponse struct {
	Code   string `xml:"code"`
	Detail string `xml:"detail"`
}

// Error codes.
const (
	CodeBadRequest  = "bad-request"
	CodeNoResources = "no-resources"
	CodeNotFound    = "not-found"
	CodeInternal    = "internal"
	CodeUnavailable = "unavailable"
)

// Errorf builds an error envelope.
func Errorf(seq uint64, code, format string, args ...any) *Message {
	return &Message{Kind: KindError, Seq: seq, Err: &ErrorResponse{Code: code, Detail: fmt.Sprintf(format, args...)}}
}

// validateEnvelope checks the Kind matches the populated body and that
// no other body rides along.
func (m *Message) validateEnvelope() error {
	bodies := [...]bool{ // in bodyNames order
		m.Create != nil, m.Created != nil, m.BatchCreate != nil, m.BatchCreated != nil,
		m.Query != nil, m.Queried != nil, m.Destroy != nil, m.Destroyed != nil,
		m.Estimate != nil, m.Bid != nil, m.ForwardCreate != nil, m.ForwardCreated != nil,
		m.Publish != nil, m.Published != nil, m.Lifecycle != nil, m.Lifecycled != nil,
		m.List != nil, m.Listed != nil,
		m.Ping != nil, m.Pong != nil, m.Err != nil,
	}
	kind := slices.Index(bodyNames, string(m.Kind))
	if kind < 0 {
		return fmt.Errorf("proto: unknown message kind %q", m.Kind)
	}
	if !bodies[kind] {
		return fmt.Errorf("proto: message kind %q without matching body", m.Kind)
	}
	n := 0
	for _, set := range bodies {
		if set {
			n++
		}
	}
	if n != 1 {
		return fmt.Errorf("proto: message carries %d bodies, want exactly 1", n)
	}
	return nil
}

// Marshal serializes a message to its XML document bytes.
func Marshal(m *Message) ([]byte, error) {
	if err := m.validateEnvelope(); err != nil {
		return nil, err
	}
	bp := frameBufs.Get().(*[]byte)
	buf := appendMessage((*bp)[:0], m)
	defer recycle(bp, buf)
	return append([]byte(nil), buf...), nil
}

// Unmarshal parses and validates a message document. The message holds
// no reference to doc afterwards.
func Unmarshal(doc []byte) (*Message, error) {
	m, err := decode(doc)
	if err != nil {
		return nil, err
	}
	return m, nil
}

// decode is Unmarshal, except that a document that does not decode
// still yields what of the envelope was read (nil when not even that):
// a server answers a bad request on the seq it came with.
func decode(doc []byte) (*Message, error) {
	m, err := scanMessage(doc)
	if err != nil {
		return m, fmt.Errorf("proto: %w", err)
	}
	return m, m.validateEnvelope()
}

// badFrame is a frame that arrived whole but does not decode. The
// stream is still in step after it, so a server answers it and reads on.
type badFrame struct{ error }

// frameBufs recycles WriteMessage's and ReadMessage's frame buffers.
var frameBufs = sync.Pool{New: func() any { return new([]byte) }}

// recycle returns a frame buffer to the pool, unless one outsized
// message grew it past what ordinary traffic needs.
func recycle(bp *[]byte, buf []byte) {
	if cap(buf) <= 64<<10 {
		*bp = buf[:0]
		frameBufs.Put(bp)
	}
}

// WriteMessage frames and writes one message: length prefix and
// document leave in a single Write.
func WriteMessage(w io.Writer, m *Message) error {
	if err := m.validateEnvelope(); err != nil {
		return err
	}
	bp := frameBufs.Get().(*[]byte)
	buf := appendMessage(append((*bp)[:0], 0, 0, 0, 0), m)
	defer recycle(bp, buf)
	if len(buf)-4 > MaxMessageSize {
		return fmt.Errorf("proto: message of %d bytes exceeds limit", len(buf)-4)
	}
	binary.BigEndian.PutUint32(buf, uint32(len(buf)-4))
	_, err := w.Write(buf)
	return err
}

// ReadMessage reads one framed message, and not a byte more.
func ReadMessage(r io.Reader) (*Message, error) {
	bp := frameBufs.Get().(*[]byte)
	fr := frameReader{r: r, buf: *bp, exact: true}
	defer func() { recycle(bp, fr.buf) }()
	m, err := fr.next()
	if err != nil {
		return nil, err
	}
	return m, nil
}

// frameReader reads framed messages off one stream into a buffer it
// keeps between frames. Unless exact, each read takes whatever has
// arrived, so a frame that was written at once is read at once.
type frameReader struct {
	r     io.Reader
	buf   []byte
	start int // buf[start:end] has been read but is not yet decoded
	end   int
	exact bool
}

// next reads and decodes the next frame. The error is io.EOF when the
// stream ends between frames, and a badFrame — beside what of the
// envelope decode read — when a whole frame does not decode.
func (fr *frameReader) next() (*Message, error) {
	fr.end = copy(fr.buf, fr.buf[fr.start:fr.end])
	fr.start = 0
	if err := fr.fill(4); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(fr.buf)
	if n > MaxMessageSize {
		return nil, fmt.Errorf("proto: frame of %d bytes exceeds limit", n)
	}
	fr.start = 4 + int(n)
	if err := fr.fill(fr.start); err != nil {
		fr.start, fr.end = 0, 0
		return nil, fmt.Errorf("proto: truncated frame: %w", err)
	}
	m, err := decode(fr.buf[4:fr.start])
	if err != nil {
		return m, badFrame{err}
	}
	return m, nil
}

// fill reads until n bytes are buffered.
func (fr *frameReader) fill(n int) error {
	if fr.end >= n {
		return nil
	}
	if cap(fr.buf) < n {
		grown := make([]byte, max(n, 4096))
		copy(grown, fr.buf[:fr.end])
		fr.buf = grown
	}
	fr.buf = fr.buf[:cap(fr.buf)]
	into := fr.buf[fr.end:]
	if fr.exact {
		into = fr.buf[fr.end:n]
	}
	got, err := io.ReadAtLeast(fr.r, into, n-fr.end)
	if err == io.EOF && fr.end > 0 {
		err = io.ErrUnexpectedEOF
	}
	fr.end += got
	return err
}
