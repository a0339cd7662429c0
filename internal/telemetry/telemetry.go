// Package telemetry is the observability substrate for the VMPlants
// stack: a span tracer whose spans carry both wall-clock and simulation
// virtual time, and a metrics registry of counters, gauges and
// histograms with atomic hot paths.
//
// Everything is nil-safe: a nil *Hub, *Tracer, *Registry, *Span,
// *Counter, *Gauge or *Histogram accepts every call as a no-op, so
// instrumented code paths need no "is telemetry enabled" branches and
// allocate nothing when telemetry is disabled. Components receive a
// *Hub (usually via their Config or a SetTelemetry method); passing nil
// disables instrumentation entirely.
package telemetry

import (
	"hash/fnv"
	"strconv"
	"sync"
	"time"
)

// Clock yields the current virtual time. *sim.Proc implements it; pass
// a nil Clock for spans that exist only in wall time (e.g. real RPCs).
type Clock interface {
	Now() time.Duration
}

// Attr is one key=value span annotation.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span records one traced operation. Start and end are captured in both
// virtual time (the simulation kernel's clock, when a Clock is given)
// and wall-clock time. A span is mutable until End; after End it is
// published to the tracer and must not be modified.
type Span struct {
	ID      uint64
	Parent  uint64 // 0 for root spans
	TraceID uint64 // root span's ID; shared by every span of one trace
	Name    string

	VStart time.Duration // virtual time at start
	VEnd   time.Duration // virtual time at end
	WStart time.Time     // wall clock at start
	WEnd   time.Time     // wall clock at end

	Attrs []Attr
	Err   string // non-empty when the operation failed

	tr *Tracer
}

// Virtual reports the span's virtual-time duration.
func (s Span) Virtual() time.Duration { return s.VEnd - s.VStart }

// Wall reports the span's wall-clock duration.
func (s Span) Wall() time.Duration { return s.WEnd.Sub(s.WStart) }

// Attr returns the value of the named annotation ("" when absent).
func (s Span) Attr(key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// SpanContext identifies a position inside a trace: the trace's ID and
// the span new children should parent under. It is the unit of
// propagation — carried on a *sim.Proc between components and on the
// proto.Message envelope across process boundaries. The zero value
// means "no trace"; StartCtx then begins a new root trace.
type SpanContext struct {
	TraceID uint64
	Span    uint64
}

// Valid reports whether the context carries a trace.
func (sc SpanContext) Valid() bool { return sc.TraceID != 0 }

// Context returns the span's position for propagating to children,
// possibly across a process boundary. A nil span yields the zero
// context.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.TraceID, Span: s.ID}
}

// DefaultSpanLimit bounds the tracer's finished-span ring buffer.
const DefaultSpanLimit = 8192

// Tracer collects finished spans in a bounded ring buffer. A nil
// *Tracer is a valid no-op tracer.
type Tracer struct {
	mu     sync.Mutex
	nextID uint64
	idBase uint64
	ring   Ring[*Span]
}

// NewTracer returns a tracer keeping the most recent limit finished
// spans (limit <= 0 selects DefaultSpanLimit).
func NewTracer(limit int) *Tracer {
	if limit <= 0 {
		limit = DefaultSpanLimit
	}
	return &Tracer{ring: NewRing[*Span](limit)}
}

// SetIDBase offsets every span ID this tracer mints by base, so span
// sets merged from several processes (shop daemon + plant daemons)
// never collide and a cross-process parent reference stays resolvable.
// Call it before the first span starts; daemons derive the base from
// their instance name.
func (t *Tracer) SetIDBase(base uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.idBase = base
	t.mu.Unlock()
}

// IDBaseForInstance derives a SetIDBase offset from an instance name:
// a 31-bit FNV-1a hash shifted into the high half of the ID space, so
// each daemon mints from its own range and span sets merged across
// processes (shop + plants) keep parent references resolvable.
func IDBaseForInstance(name string) uint64 {
	h := fnv.New32a()
	h.Write([]byte(name))
	return uint64(h.Sum32()&0x7fffffff) << 32
}

// Start begins a root span of a new trace. c supplies virtual time and
// may be nil for wall-only spans. On a nil tracer it returns nil, which
// every Span method accepts.
func (t *Tracer) Start(c Clock, name string) *Span {
	if t == nil {
		return nil
	}
	s := &Span{Name: name, WStart: time.Now(), tr: t}
	if c != nil {
		s.VStart = c.Now()
	}
	t.mu.Lock()
	t.nextID++
	s.ID = t.idBase + t.nextID
	t.mu.Unlock()
	s.TraceID = s.ID
	return s
}

// StartCtx begins a span inside the trace sc identifies — the
// cross-boundary continuation used when the parent span lives on
// another proc or in another process. With the zero context it is
// exactly Start: a new root trace.
func (t *Tracer) StartCtx(c Clock, name string, sc SpanContext) *Span {
	s := t.Start(c, name)
	if s == nil {
		return nil
	}
	if sc.Valid() {
		s.TraceID = sc.TraceID
		s.Parent = sc.Span
	}
	return s
}

// Child begins a sub-span of s in the same trace.
func (s *Span) Child(c Clock, name string) *Span {
	if s == nil {
		return nil
	}
	cs := s.tr.Start(c, name)
	cs.Parent = s.ID
	cs.TraceID = s.TraceID
	return cs
}

// Set annotates the span, returning it for chaining.
func (s *Span) Set(key, value string) *Span {
	if s == nil {
		return nil
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: value})
	return s
}

// SetInt annotates the span with an integer value.
func (s *Span) SetInt(key string, v int64) *Span {
	if s == nil {
		return nil
	}
	return s.Set(key, strconv.FormatInt(v, 10))
}

// End finishes the span and publishes it to the tracer.
func (s *Span) End(c Clock) { s.EndErr(c, nil) }

// EndErr finishes the span, recording err (if any) as its outcome.
func (s *Span) EndErr(c Clock, err error) {
	if s == nil {
		return
	}
	if c != nil {
		s.VEnd = c.Now()
	}
	s.WEnd = time.Now()
	if err != nil {
		s.Err = err.Error()
	}
	s.tr.record(s)
}

// RecordChild attaches an already-measured virtual-time interval as a
// finished child span of s — how a caller decomposes an operation whose
// stage timings were measured elsewhere (e.g. vmm.CloneStats) without
// instrumenting the callee. err (if any) is the child's outcome, and
// attrs annotate it.
func (s *Span) RecordChild(name string, vstart, vend time.Duration, err error, attrs ...Attr) {
	if s == nil {
		return
	}
	now := time.Now()
	cs := s.tr.Start(nil, name)
	cs.Parent = s.ID
	cs.TraceID = s.TraceID
	cs.VStart = vstart
	cs.VEnd = vend
	cs.WStart = now
	cs.WEnd = now
	cs.Attrs = append(cs.Attrs, attrs...)
	if err != nil {
		cs.Err = err.Error()
	}
	s.tr.record(cs)
}

// record appends a finished span, evicting the oldest when full.
func (t *Tracer) record(s *Span) {
	t.mu.Lock()
	t.ring.Push(s)
	t.mu.Unlock()
}

// Spans returns the finished spans, oldest first, as value copies.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, t.ring.Len())
	for i := range out {
		out[i] = *t.ring.At(i)
	}
	return out
}

// SpansFor returns the finished spans belonging to one trace, oldest
// first. Spans evicted from the ring are gone — check Dropped() when a
// complete tree matters.
func (t *Tracer) SpansFor(traceID uint64) []Span {
	if t == nil || traceID == 0 {
		return nil
	}
	var out []Span
	for _, s := range t.Spans() {
		if s.TraceID == traceID {
			out = append(out, s)
		}
	}
	return out
}

// Dropped reports how many finished spans were evicted from the ring.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.Dropped()
}

// Reset discards all finished spans (span IDs keep increasing).
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ring.Reset()
	t.mu.Unlock()
}

// Hub bundles a tracer, a metrics registry and an optional SLO engine
// — the single handle components are wired with. A nil *Hub disables
// all instrumentation.
type Hub struct {
	Tracer  *Tracer
	Metrics *Registry
	// SLO holds the hub's objectives; nil until a daemon or experiment
	// installs an engine (see NewSLOEngine).
	SLO *SLOEngine
	// VClock, when set, supplies the virtual time /debug/health
	// evaluates SLOs at (daemons point it at their service runner).
	VClock Clock
}

// New returns a hub with a default tracer and an empty registry.
func New() *Hub {
	return &Hub{Tracer: NewTracer(0), Metrics: NewRegistry()}
}

// T returns the hub's tracer (nil on a nil hub).
func (h *Hub) T() *Tracer {
	if h == nil {
		return nil
	}
	return h.Tracer
}

// M returns the hub's metrics registry (nil on a nil hub).
func (h *Hub) M() *Registry {
	if h == nil {
		return nil
	}
	return h.Metrics
}

// Counter resolves a counter by name (nil on a nil hub).
func (h *Hub) Counter(name string) *Counter { return h.M().Counter(name) }

// Gauge resolves a gauge by name (nil on a nil hub).
func (h *Hub) Gauge(name string) *Gauge { return h.M().Gauge(name) }

// Histogram resolves a histogram by name (nil on a nil hub).
func (h *Hub) Histogram(name string) *Histogram { return h.M().Histogram(name) }
