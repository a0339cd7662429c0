package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// SpanRecord is the JSON shape of one exported span — the line format
// of the JSONL trace export and of /debug/traces.
type SpanRecord struct {
	ID     uint64            `json:"id"`
	Parent uint64            `json:"parent,omitempty"`
	Trace  uint64            `json:"trace,omitempty"`
	Name   string            `json:"name"`
	VStart float64           `json:"vstart"` // virtual start, seconds
	VSecs  float64           `json:"vsecs"`  // virtual duration, seconds
	WStart string            `json:"wstart,omitempty"`
	WSecs  float64           `json:"wsecs"` // wall duration, seconds
	Attrs  map[string]string `json:"attrs,omitempty"`
	Err    string            `json:"err,omitempty"`
}

// Record converts a span to its export shape.
func (s Span) Record() SpanRecord {
	r := SpanRecord{
		ID:     s.ID,
		Parent: s.Parent,
		Trace:  s.TraceID,
		Name:   s.Name,
		VStart: s.VStart.Seconds(),
		VSecs:  s.Virtual().Seconds(),
		WSecs:  s.Wall().Seconds(),
		Err:    s.Err,
	}
	if !s.WStart.IsZero() {
		r.WStart = s.WStart.Format(time.RFC3339Nano)
	}
	if len(s.Attrs) > 0 {
		r.Attrs = make(map[string]string, len(s.Attrs))
		for _, a := range s.Attrs {
			r.Attrs[a.Key] = a.Value
		}
	}
	return r
}

// WriteJSONL writes every finished span as one JSON document per line,
// oldest first — the trace export vmbench consumes.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s.Record()); err != nil {
			return err
		}
	}
	return nil
}

// TraceMeta is the header line of /debug/traces: ring accounting that
// tells a remote consumer whether the span set it is about to read is
// complete.
type TraceMeta struct {
	Meta    bool   `json:"meta"`
	Spans   int    `json:"spans"`   // spans the response carries
	Dropped uint64 `json:"dropped"` // spans evicted from the ring
}

// CreationReport is the JSON document /debug/creation/<id> serves: the
// flight-recorder timeline for one creation plus every span of the
// traces that mention it.
type CreationReport struct {
	ID      string         `json:"id"`
	Events  []FlightRecord `json:"events"`
	Spans   []SpanRecord   `json:"spans"`
	Dropped uint64         `json:"dropped"` // span-ring evictions (completeness caveat)
}

// HealthReport is the JSON document /debug/health serves.
type HealthReport struct {
	VSecs      float64           `json:"vsecs"`
	Healthy    bool              `json:"healthy"`
	Objectives []ObjectiveStatus `json:"objectives"`
}

// CreationReportFor assembles the report for one creation/VM ID: its
// flight events, plus all spans of every trace containing a span whose
// "vmid" attribute matches.
func (h *Hub) CreationReportFor(id string) CreationReport {
	rep := CreationReport{ID: id, Events: []FlightRecord{}, Spans: []SpanRecord{}, Dropped: h.T().Dropped()}
	for _, ev := range h.F().Events(id) {
		rep.Events = append(rep.Events, ev.Record())
	}
	spans := h.T().Spans()
	traces := make(map[uint64]bool)
	for _, s := range spans {
		if s.TraceID != 0 && s.Attr("vmid") == id {
			traces[s.TraceID] = true
		}
	}
	for _, s := range spans {
		if traces[s.TraceID] {
			rep.Spans = append(rep.Spans, s.Record())
		}
	}
	return rep
}

// HealthReportAt evaluates the hub's SLO engine at vnow.
func (h *Hub) HealthReportAt(vnow time.Duration) HealthReport {
	rep := HealthReport{VSecs: vnow.Seconds(), Healthy: true, Objectives: []ObjectiveStatus{}}
	if h == nil || h.SLO == nil {
		return rep
	}
	for _, st := range h.SLO.Evaluate(vnow) {
		rep.Objectives = append(rep.Objectives, st)
		if !st.OK {
			rep.Healthy = false
		}
	}
	return rep
}

// DebugMux returns the hub's debug endpoints as a mux the caller can
// extend with subsystem-specific handlers (the daemons add
// /debug/warehouse) before serving:
//
//	GET /metrics              expvar-compatible JSON of every instrument
//	GET /debug/traces         a meta line (span/dropped counts), then
//	                          finished spans as JSONL (?limit=N for the
//	                          most recent N, ?name=prefix to filter)
//	GET /debug/creation/<id>  one creation's flight-recorder timeline
//	                          and span trees
//	GET /debug/health         SLO evaluation at current virtual time
func (h *Hub) DebugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(h.M().Snapshot())
	})
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, req *http.Request) {
		spans := h.T().Spans()
		if v := req.URL.Query().Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				http.Error(w, fmt.Sprintf("bad limit %q", v), http.StatusBadRequest)
				return
			}
			if n < len(spans) {
				spans = spans[len(spans)-n:]
			}
		}
		name := req.URL.Query().Get("name")
		var out []SpanRecord
		for _, s := range spans {
			if name != "" && !hasPrefix(s.Name, name) {
				continue
			}
			out = append(out, s.Record())
		}
		w.Header().Set("Content-Type", "application/jsonl")
		enc := json.NewEncoder(w)
		enc.Encode(TraceMeta{Meta: true, Spans: len(out), Dropped: h.T().Dropped()})
		for _, r := range out {
			enc.Encode(r)
		}
	})
	mux.HandleFunc("/debug/creation/", func(w http.ResponseWriter, req *http.Request) {
		id := strings.TrimPrefix(req.URL.Path, "/debug/creation/")
		if id == "" {
			http.Error(w, "usage: /debug/creation/<vmid>", http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(h.CreationReportFor(id))
	})
	mux.HandleFunc("/debug/health", func(w http.ResponseWriter, _ *http.Request) {
		var vnow time.Duration
		if h != nil && h.VClock != nil {
			vnow = h.VClock.Now()
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(h.HealthReportAt(vnow))
	})
	return mux
}

func hasPrefix(s, prefix string) bool {
	return len(s) >= len(prefix) && s[:len(prefix)] == prefix
}

// chromeEvent is one entry of the Chrome trace-event format ("ph":"X"
// complete events), loadable as-is by chrome://tracing and Perfetto.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   int64             `json:"ts"`  // virtual start, microseconds
	Dur  int64             `json:"dur"` // virtual duration, microseconds
	Pid  int               `json:"pid"`
	Tid  uint64            `json:"tid"` // trace ID: one creation per row
	Args map[string]string `json:"args,omitempty"`
}

// WriteChromeTrace renders spans as a Chrome trace-event JSON document.
// The timeline is virtual time (microseconds) and rows (tid) are trace
// IDs, so each creation's tree reads as one row. Wall times are
// deliberately omitted: the export of a same-seed rerun is
// byte-identical.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	evs := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		ev := chromeEvent{
			Name: s.Name,
			Cat:  "vmplants",
			Ph:   "X",
			Ts:   s.VStart.Microseconds(),
			Dur:  s.Virtual().Microseconds(),
			Pid:  1,
			Tid:  s.TraceID,
		}
		args := map[string]string{
			"id":     strconv.FormatUint(s.ID, 10),
			"parent": strconv.FormatUint(s.Parent, 10),
		}
		for _, a := range s.Attrs {
			args[a.Key] = a.Value
		}
		if s.Err != "" {
			args["err"] = s.Err
		}
		ev.Args = args
		evs = append(evs, ev)
	}
	// Stable order: by (ts, tid, id) so the document is deterministic
	// regardless of span end order.
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].Ts != evs[j].Ts {
			return evs[i].Ts < evs[j].Ts
		}
		if evs[i].Tid != evs[j].Tid {
			return evs[i].Tid < evs[j].Tid
		}
		return evs[i].Args["id"] < evs[j].Args["id"]
	})
	doc := struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{TraceEvents: evs}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// Serve starts handler on addr in a background goroutine and returns
// the bound address (useful with ":0"). The listener lives until the
// process exits.
func Serve(addr string, handler http.Handler) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("telemetry: debug listen %s: %w", addr, err)
	}
	go http.Serve(l, handler)
	return l.Addr().String(), nil
}
