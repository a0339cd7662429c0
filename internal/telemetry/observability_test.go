package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestStartCtxJoinsTrace(t *testing.T) {
	tr := NewTracer(0)
	c := &fakeClock{}
	root := tr.Start(c, "root")
	if root.TraceID != root.ID {
		t.Fatalf("root trace = %d, want its own id %d", root.TraceID, root.ID)
	}
	joined := tr.StartCtx(c, "joined", root.Context())
	if joined.TraceID != root.TraceID || joined.Parent != root.ID {
		t.Fatalf("joined = trace %d parent %d, want trace %d parent %d",
			joined.TraceID, joined.Parent, root.TraceID, root.ID)
	}
	grand := joined.Child(c, "grand")
	grand.End(c)
	joined.End(c)
	root.End(c)

	// StartCtx with a zero context roots a fresh trace.
	other := tr.StartCtx(c, "other", SpanContext{})
	other.End(c)
	if other.TraceID == root.TraceID || other.Parent != 0 {
		t.Fatalf("zero-context span joined trace %d (parent %d)", other.TraceID, other.Parent)
	}

	got := tr.SpansFor(root.TraceID)
	if len(got) != 3 {
		t.Fatalf("SpansFor returned %d spans, want 3", len(got))
	}
	for _, s := range got {
		if s.TraceID != root.TraceID {
			t.Fatalf("span %q carries trace %d, want %d", s.Name, s.TraceID, root.TraceID)
		}
	}
	if len(tr.SpansFor(0)) != 0 {
		t.Fatal("SpansFor(0) must return nothing")
	}
}

func TestSetIDBaseSeparatesInstances(t *testing.T) {
	a, b := NewTracer(0), NewTracer(0)
	a.SetIDBase(1 << 32)
	b.SetIDBase(2 << 32)
	c := &fakeClock{}
	sa := a.Start(c, "a")
	sb := b.Start(c, "b")
	sa.End(c)
	sb.End(c)
	if sa.ID == sb.ID || sa.TraceID == sb.TraceID {
		t.Fatalf("colliding ids across instances: %d vs %d", sa.ID, sb.ID)
	}
	if sa.ID>>32 != 1 || sb.ID>>32 != 2 {
		t.Fatalf("ids %d/%d not in their base ranges", sa.ID, sb.ID)
	}
}

func TestHistogramResetQuantileFraction(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("secs")
	for _, v := range []float64{1, 2, 3, 4, 10} {
		h.Observe(v)
	}
	if q := h.Quantile(0.5); q != 3 {
		t.Fatalf("p50 = %v, want 3", q)
	}
	if fa := h.FractionAbove(4); fa != 0.2 {
		t.Fatalf("FractionAbove(4) = %v, want 0.2", fa)
	}
	if fa := h.FractionAbove(100); fa != 0 {
		t.Fatalf("FractionAbove(100) = %v, want 0", fa)
	}
	r.ResetHistograms()
	if h.Count() != 0 || h.Quantile(0.5) != 0 || h.FractionAbove(0) != 0 {
		t.Fatalf("histogram not reset: count=%d", h.Count())
	}
	h.Observe(7)
	if h.Count() != 1 || h.Quantile(0.99) != 7 {
		t.Fatal("histogram unusable after reset")
	}
}

func TestSLOEngineLatencyAndRatio(t *testing.T) {
	r := NewRegistry()
	e := NewSLOEngine(r,
		Objective{Name: "create.p99", Hist: "create_secs", Quantile: 0.99, MaxSeconds: 10},
		Objective{Name: "clone.success", Good: "ok", Bad: "fail", MinRatio: 0.75},
	)

	// No observations: everything healthy, zero burn.
	for _, st := range e.Evaluate(time.Second) {
		if !st.OK || st.Burn != 0 || st.Samples != 0 {
			t.Fatalf("idle objective not OK: %+v", st)
		}
	}
	if !e.Healthy(time.Second) {
		t.Fatal("idle engine must be healthy")
	}

	h := r.Histogram("create_secs")
	for i := 0; i < 99; i++ {
		h.Observe(1)
	}
	r.Counter("ok").Add(9)
	r.Counter("fail").Add(1)
	sts := e.Evaluate(2 * time.Second)
	if !sts[0].OK || sts[0].Value != 1 {
		t.Fatalf("latency objective: %+v", sts[0])
	}
	if !sts[1].OK || sts[1].Value != 0.9 {
		t.Fatalf("ratio objective: %+v", sts[1])
	}
	// Burn: 10% bad over a 25% allowance.
	if got := sts[1].Burn; got < 0.39 || got > 0.41 {
		t.Fatalf("ratio burn = %v, want 0.4", got)
	}

	// A burst of slow creations pushes p99 over the bound.
	for i := 0; i < 5; i++ {
		h.Observe(100)
	}
	sts = e.Evaluate(3 * time.Second)
	if sts[0].OK || sts[0].Value <= 10 {
		t.Fatalf("violated latency objective still OK: %+v", sts[0])
	}
	if e.Healthy(3 * time.Second) {
		t.Fatal("engine healthy despite violated objective")
	}

	var nilE *SLOEngine
	nilE.Add(Objective{Name: "x"})
	if nilE.Evaluate(0) != nil || !nilE.Healthy(0) {
		t.Fatal("nil engine must no-op healthy")
	}
}

func TestCreationAndHealthEndpoints(t *testing.T) {
	h := New()
	c := &fakeClock{}
	h.VClock = c
	h.SLO = NewSLOEngine(h.M(),
		Objective{Name: "create.p99", Hist: "plant.create_secs", Quantile: 0.99, MaxSeconds: 60})

	sp := h.T().Start(c, "shop.create").Set("vmid", "vm-9")
	child := sp.Child(c, "plant.create")
	c.t = 5 * time.Second
	child.End(c)
	sp.End(c)
	h.Histogram("plant.create_secs").Observe(5)

	addr, err := Serve("127.0.0.1:0", h.DebugMux())
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + addr + "/debug/creation/vm-9")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var rep CreationReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("/debug/creation not JSON: %v\n%s", err, body)
	}
	if rep.ID != "vm-9" || len(rep.Spans) != 2 {
		t.Fatalf("creation report = %+v", rep)
	}

	resp, err = http.Get("http://" + addr + "/debug/health")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var hr HealthReport
	if err := json.Unmarshal(body, &hr); err != nil {
		t.Fatalf("/debug/health not JSON: %v\n%s", err, body)
	}
	if !hr.Healthy || len(hr.Objectives) != 1 || hr.VSecs != 5 {
		t.Fatalf("health report = %+v", hr)
	}
}

func TestWriteChromeTraceDeterministic(t *testing.T) {
	render := func() string {
		tr := NewTracer(0)
		c := &fakeClock{}
		root := tr.Start(c, "shop.create").Set("vmid", "vm-1")
		c.t = time.Second
		child := root.Child(c, "clone")
		c.t = 3 * time.Second
		child.End(c)
		root.End(c)
		var buf bytes.Buffer
		if err := WriteChromeTrace(&buf, tr.Spans()); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("chrome trace not byte-identical:\n%s\n---\n%s", a, b)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(a), &doc); err != nil {
		t.Fatalf("chrome trace not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(doc.TraceEvents))
	}
	for _, ev := range doc.TraceEvents {
		if ev["ph"] != "X" {
			t.Fatalf("event phase = %v, want X", ev["ph"])
		}
	}
	if strings.Contains(a, "wstart") {
		t.Fatal("chrome trace must not embed wall timestamps")
	}

	// Ties on (ts, tid) break on the numeric span ID: 9 before 10, one
	// trace, both starting at 1 s.
	tr := NewTracer(0)
	c := &fakeClock{}
	root := tr.Start(c, "root")
	for root.ID < 8 {
		root.End(c)
		root = tr.Start(c, "root")
	}
	c.t = time.Second
	nine, ten := root.Child(c, "nine"), root.Child(c, "ten")
	ten.End(c)
	nine.End(c)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, []Span{*ten, *nine}); err != nil {
		t.Fatal(err)
	}
	doc.TraceEvents = nil
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var ids []any
	for _, ev := range doc.TraceEvents {
		ids = append(ids, ev["args"].(map[string]any)["id"])
	}
	if len(ids) != 2 || ids[0] != "9" || ids[1] != "10" {
		t.Fatalf("tied spans in id order %v, want [9 10]", ids)
	}
}
