package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"vmplants/internal/stats"
)

// fakeClock is a settable virtual clock.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) Now() time.Duration { return c.t }

func TestSpanCapturesVirtualAndWallTime(t *testing.T) {
	tr := NewTracer(0)
	c := &fakeClock{t: 10 * time.Second}
	sp := tr.Start(c, "op").Set("k", "v").SetInt("n", 7)
	c.t = 25 * time.Second
	sp.End(c)

	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	s := spans[0]
	if s.Name != "op" || s.Virtual() != 15*time.Second {
		t.Fatalf("span %q virtual %v, want op/15s", s.Name, s.Virtual())
	}
	if s.Attr("k") != "v" || s.Attr("n") != "7" {
		t.Fatalf("attrs = %v", s.Attrs)
	}
	if s.Wall() < 0 {
		t.Fatalf("negative wall duration %v", s.Wall())
	}
}

func TestSpanChildAndError(t *testing.T) {
	tr := NewTracer(0)
	c := &fakeClock{}
	root := tr.Start(c, "root")
	child := root.Child(c, "child")
	child.EndErr(c, fmt.Errorf("boom"))
	root.End(c)

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// Children publish before parents (end order).
	if spans[0].Parent != root.ID {
		t.Fatalf("child parent = %d, want %d", spans[0].Parent, root.ID)
	}
	if spans[0].Err != "boom" {
		t.Fatalf("child err = %q", spans[0].Err)
	}
	if spans[1].Err != "" {
		t.Fatalf("root err = %q, want clean", spans[1].Err)
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(4)
	c := &fakeClock{}
	for i := 0; i < 7; i++ {
		tr.Start(c, fmt.Sprintf("s%d", i)).End(c)
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d, want 4", len(spans))
	}
	if got := tr.Dropped(); got != 3 {
		t.Fatalf("dropped = %d, want 3", got)
	}
	// Oldest-first order across the wrap point.
	for i, s := range spans {
		if want := fmt.Sprintf("s%d", i+3); s.Name != want {
			t.Fatalf("spans[%d] = %q, want %q", i, s.Name, want)
		}
	}
}

// TestNoopTracerZeroAlloc is the issue's zero-allocation requirement:
// a disabled (nil) tracer must cost nothing on the instrumented path.
func TestNoopTracerZeroAlloc(t *testing.T) {
	var tr *Tracer
	c := &fakeClock{}
	allocs := testing.AllocsPerRun(100, func() {
		sp := tr.Start(c, "op").Set("k", "v").SetInt("n", 42)
		child := sp.Child(c, "child")
		child.RecordChild("grand", 0, time.Second)
		child.EndErr(c, nil)
		sp.End(c)
	})
	if allocs != 0 {
		t.Fatalf("no-op tracer allocates %.0f bytes/op, want 0", allocs)
	}
}

func TestNoopMetricsZeroAlloc(t *testing.T) {
	var h *Hub
	cnt := h.Counter("c")
	g := h.Gauge("g")
	hist := h.Histogram("h")
	allocs := testing.AllocsPerRun(100, func() {
		cnt.Inc()
		cnt.Add(3)
		g.Set(5)
		g.SetMax(9)
		hist.Observe(1.5)
	})
	if allocs != 0 {
		t.Fatalf("no-op metrics allocate %.0f bytes/op, want 0", allocs)
	}
	if cnt.Value() != 0 || g.Value() != 0 || hist.Count() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
}

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if r.Counter("c") != c {
		t.Fatal("registry must return the same counter per name")
	}
	g := r.Gauge("g")
	g.Set(10)
	g.SetMax(7) // below current: no change
	if g.Value() != 10 {
		t.Fatalf("gauge = %d after SetMax(7), want 10", g.Value())
	}
	g.SetMax(12)
	if g.Value() != 12 {
		t.Fatalf("gauge = %d after SetMax(12), want 12", g.Value())
	}
}

// TestHistogramMatchesStatsSummarize is the issue's cross-check: a
// histogram snapshot must be exactly stats.Summarize on the same
// sample.
func TestHistogramMatchesStatsSummarize(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h")
	sample := []float64{4, 8, 15, 16, 23, 42, 1.5, 0.25}
	for _, v := range sample {
		h.Observe(v)
	}
	got := h.Snapshot()
	want := stats.Summarize(sample)
	if got != want {
		t.Fatalf("histogram snapshot %+v != stats.Summarize %+v", got, want)
	}
	if h.Count() != int64(len(sample)) {
		t.Fatalf("count = %d, want %d", h.Count(), len(sample))
	}
}

func TestHistogramSlidingWindow(t *testing.T) {
	h := &Histogram{limit: 4}
	for i := 1; i <= 6; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	s := h.Snapshot()
	if s.N != 4 {
		t.Fatalf("retained %d samples, want 4", s.N)
	}
	// 1 and 2 slid out: retained window is {5, 6, 3, 4}.
	if s.Min != 3 || s.Max != 6 {
		t.Fatalf("window [%v, %v], want [3, 6]", s.Min, s.Max)
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("creations").Add(3)
	r.Gauge("depth").Set(7)
	r.Histogram("secs").Observe(2.5)
	snap := r.Snapshot()
	if snap["creations"] != int64(3) {
		t.Fatalf("creations = %v", snap["creations"])
	}
	if snap["depth"] != int64(7) {
		t.Fatalf("depth = %v", snap["depth"])
	}
	hv, ok := snap["secs"].(map[string]any)
	if !ok || hv["count"] != int64(1) || hv["mean"] != 2.5 {
		t.Fatalf("secs = %v", snap["secs"])
	}
}

func TestHTTPEndpoints(t *testing.T) {
	h := New()
	h.Counter("plant.creations").Add(2)
	c := &fakeClock{}
	h.T().Start(c, "plant.create").Set("vmid", "vm-1").End(c)
	h.T().Start(c, "shop.create").End(c)

	addr, err := Serve("127.0.0.1:0", h.DebugMux())
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var snap map[string]any
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/metrics is not JSON: %v\n%s", err, body)
	}
	if snap["plant.creations"] != float64(2) {
		t.Fatalf("plant.creations = %v, want 2", snap["plant.creations"])
	}

	resp, err = http.Get("http://" + addr + "/debug/traces?name=plant.")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	// First line is the meta record (span count, ring drops); span
	// records follow.
	if len(lines) != 2 {
		t.Fatalf("name filter returned %d lines, want meta + 1 span:\n%s", len(lines), body)
	}
	var meta TraceMeta
	if err := json.Unmarshal([]byte(lines[0]), &meta); err != nil {
		t.Fatalf("meta line is not JSON: %v", err)
	}
	if !meta.Meta || meta.Spans != 1 || meta.Dropped != 0 {
		t.Fatalf("meta record = %+v", meta)
	}
	var rec SpanRecord
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatalf("trace line is not JSON: %v", err)
	}
	if rec.Name != "plant.create" || rec.Attrs["vmid"] != "vm-1" {
		t.Fatalf("trace record = %+v", rec)
	}
}

func TestConcurrentInstruments(t *testing.T) {
	h := New()
	c := h.Counter("c")
	g := h.Gauge("g")
	hist := h.Histogram("h")
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.SetMax(int64(j))
				hist.Observe(float64(j))
				h.T().Start(nil, "op").End(nil)
			}
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	if c.Value() != 4000 {
		t.Fatalf("counter = %d, want 4000", c.Value())
	}
	if hist.Count() != 4000 {
		t.Fatalf("histogram count = %d, want 4000", hist.Count())
	}
	if got := len(h.T().Spans()) + int(h.T().Dropped()); got != 4000 {
		t.Fatalf("spans+dropped = %d, want 4000", got)
	}
	h.M().Snapshot() // must not race with writers
}
