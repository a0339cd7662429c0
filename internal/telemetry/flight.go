package telemetry

import (
	"sync"
	"time"
)

// The flight recorder keeps a bounded ring of typed lifecycle events
// keyed by creation/VM ID — the black box that explains what happened
// to one creation after the fact, cheaper and longer-lived than full
// spans. It is the deliberate seam for a future durable control-plane
// journal: every event already carries the identity, ordering and
// timestamps a persistent log would need.

// Flight-event kinds. Components record these at the moments a
// post-mortem cares about; the set is open — any string is accepted —
// but the stack sticks to this vocabulary.
const (
	EvSubmitted     = "submitted"      // shop accepted the creation request
	EvBidWon        = "bid-won"        // winner selected (detail: plant)
	EvAdmitted      = "admitted"       // clone admission slot acquired
	EvCloneStart    = "clone-start"    // golden-state clone began (detail: image)
	EvCloneDone     = "clone-done"     // clone finished (detail: mode)
	EvFaultInjected = "fault-injected" // an injected fault fired (detail: kind)
	EvRetried       = "retried"        // creation failed over / RPC retried
	EvQuarantineHit = "quarantine-hit" // clone refused or failed integrity verification
	EvCreated       = "created"        // creation completed (detail: plant)
	EvPublished     = "published"      // derived image published back (detail: image)
)

// FlightEvent is one recorded lifecycle event.
type FlightEvent struct {
	Seq    uint64        // global recording order
	Key    string        // creation/VM ID
	Kind   string        // one of the Ev* kinds
	Detail string        // kind-specific annotation ("" when none)
	V      time.Duration // virtual time at recording (0 without a clock)
	W      time.Time     // wall clock at recording
}

// DefaultFlightLimit bounds the flight recorder's event ring.
const DefaultFlightLimit = 16384

// FlightRecorder is a bounded, concurrency-safe lifecycle-event ring.
// A nil *FlightRecorder accepts every call as a no-op.
type FlightRecorder struct {
	mu   sync.Mutex
	ring Ring[FlightEvent]
	seq  uint64 // events ever recorded: Reset does not rewind it
}

// NewFlightRecorder returns a recorder keeping the most recent limit
// events (limit <= 0 selects DefaultFlightLimit).
func NewFlightRecorder(limit int) *FlightRecorder {
	if limit <= 0 {
		limit = DefaultFlightLimit
	}
	return &FlightRecorder{ring: NewRing[FlightEvent](limit)}
}

// Record appends one event. c supplies virtual time and may be nil for
// wall-only call sites.
func (f *FlightRecorder) Record(c Clock, key, kind, detail string) {
	if f == nil {
		return
	}
	ev := FlightEvent{Key: key, Kind: kind, Detail: detail, W: time.Now()}
	if c != nil {
		ev.V = c.Now()
	}
	f.mu.Lock()
	f.seq++
	ev.Seq = f.seq
	f.ring.Push(ev)
	f.mu.Unlock()
}

// Events returns the retained events for one key in recording order;
// an empty key returns everything.
func (f *FlightRecorder) Events(key string) []FlightEvent {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]FlightEvent, 0, f.ring.Len())
	for i := 0; i < f.ring.Len(); i++ {
		if ev := f.ring.At(i); key == "" || ev.Key == key {
			out = append(out, ev)
		}
	}
	return out
}

// Keys returns every distinct key with retained events, in first-seen
// order.
func (f *FlightRecorder) Keys() []string {
	if f == nil {
		return nil
	}
	seen := make(map[string]bool)
	var out []string
	for _, ev := range f.Events("") {
		if !seen[ev.Key] {
			seen[ev.Key] = true
			out = append(out, ev.Key)
		}
	}
	return out
}

// Dropped reports how many events were evicted from the ring.
func (f *FlightRecorder) Dropped() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ring.Dropped()
}

// Reset discards all retained events (sequence numbers keep
// increasing).
func (f *FlightRecorder) Reset() {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.ring.Reset()
	f.mu.Unlock()
}

// FlightRecord is the JSON shape of one exported flight event (see
// /debug/creation/<id>).
type FlightRecord struct {
	Seq    uint64  `json:"seq"`
	Kind   string  `json:"kind"`
	Detail string  `json:"detail,omitempty"`
	VSecs  float64 `json:"vsecs"`
	Wall   string  `json:"wall,omitempty"`
}

// Record converts an event to its export shape.
func (ev FlightEvent) Record() FlightRecord {
	r := FlightRecord{Seq: ev.Seq, Kind: ev.Kind, Detail: ev.Detail, VSecs: ev.V.Seconds()}
	if !ev.W.IsZero() {
		r.Wall = ev.W.Format(time.RFC3339Nano)
	}
	return r
}
