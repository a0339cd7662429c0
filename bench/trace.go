package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"vmplants/internal/classad"
	"vmplants/internal/core"
	"vmplants/internal/shop"
	"vmplants/internal/sim"
)

// The traced run records a span at each boundary the benchmark itself
// constructs — its own client calls, the plant handles it hands the
// shop, the proto handlers and listeners it serves — and nothing inside
// the program. Spans stay in memory until the run ends.

// Layers, outermost first. A span's parent is the open span of the same
// lifecycle one layer out.
const (
	layerLifecycle = iota // one create → queries → destroy-oldest round
	layerClient           // tcp only: a ShopClient call
	layerShop             // a call into the shop (in-process call or shop handler)
	layerRPC              // tcp only: a RemotePlant call leaving the shop
	layerPlant            // a call into a plant (handle or plant handler)
)

// span is one timed call. Virtual times are seconds on whichever kernel
// clock the boundary can see (0 where it can see none).
type span struct {
	ID        int     `json:"id"`
	Parent    int     `json:"parent"` // 0 = root
	Name      string  `json:"name"`
	Lifecycle int     `json:"lifecycle"`
	Item      int     `json:"item,omitempty"` // position in a CreateMany batch
	Epoch     int     `json:"epoch"`
	WallStart int64   `json:"wall_start_ns"` // since the tracer was made
	WallEnd   int64   `json:"wall_end_ns"`
	VirtStart float64 `json:"virt_start_s"`
	VirtEnd   float64 `json:"virt_end_s"`

	layer int
}

func (s *span) wallUS() float64 { return float64(s.WallEnd-s.WallStart) / 1e3 }

type openKey struct{ layer, lifecycle int }

// tracer collects spans. A nil *tracer records nothing, so the gated
// run pays one nil check per boundary.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	epoch  int
	spans  []*span
	open   map[openKey]*span
	acting map[core.VMID]int // VM → the lifecycle now querying or destroying it
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), open: make(map[openKey]*span), acting: make(map[core.VMID]int)}
}

// start opens a span; its parent is the nearest open span of the
// lifecycle at an outer layer.
func (t *tracer) start(layer int, name string, lifecycle int, virt time.Duration) *span {
	if t == nil {
		return nil
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &span{ID: len(t.spans) + 1, Name: name, Lifecycle: lifecycle, Epoch: t.epoch,
		WallStart: now, VirtStart: virt.Seconds(), layer: layer}
	for l := layer - 1; l >= 0; l-- {
		if p := t.open[openKey{l, lifecycle}]; p != nil {
			s.Parent = p.ID
			break
		}
	}
	t.spans = append(t.spans, s)
	t.open[openKey{layer, lifecycle}] = s
	return s
}

func (t *tracer) end(s *span, virt time.Duration) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	s.WallEnd, s.VirtEnd = now, virt.Seconds()
	k := openKey{s.layer, s.Lifecycle}
	if t.open[k] == s {
		delete(t.open, k)
	}
	t.mu.Unlock()
}

// act notes which lifecycle is about to query or destroy a VM, so the
// boundaries further in — which see only the VMID — can attribute it.
func (t *tracer) act(id core.VMID, lifecycle int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.acting[id] = lifecycle
	t.mu.Unlock()
}

func (t *tracer) actingOn(id core.VMID) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.acting[id]
}

// specName names a request after its lifecycle; inner boundaries get
// the lifecycle back from the name, which is all that survives the wire.
func specName(lifecycle, item int) string { return fmt.Sprintf("lc-%d-%d", lifecycle, item) }

func lifecycleOfName(name string) (lifecycle, item int) {
	if _, err := fmt.Sscanf(name, "lc-%d-%d", &lifecycle, &item); err != nil {
		return 0, 0
	}
	return lifecycle, item
}

// selfTimes maps span ID to self time in µs: the span's wall duration
// minus the part of it its children cover. Children may overlap each
// other (concurrent creations of one batch), so the covered part is the
// union of their intervals, clipped to the parent.
func selfTimes(spans []*span) map[int]float64 {
	children := make(map[int][]*span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]float64, len(spans))
	for _, s := range spans {
		out[s.ID] = float64(s.WallEnd-s.WallStart-covered(s, children[s.ID])) / 1e3
	}
	return out
}

// covered is the length in ns of the union of the children's intervals
// inside the parent's.
func covered(parent *span, kids []*span) int64 {
	if len(kids) == 0 {
		return 0
	}
	ks := append([]*span(nil), kids...)
	sort.Slice(ks, func(i, j int) bool { return ks[i].WallStart < ks[j].WallStart })
	var total int64
	curStart, curEnd := int64(0), int64(-1)
	for _, k := range ks {
		a, b := max(k.WallStart, parent.WallStart), min(k.WallEnd, parent.WallEnd)
		if b <= a {
			continue
		}
		if curEnd < curStart || a > curEnd {
			if curEnd > curStart {
				total += curEnd - curStart
			}
			curStart, curEnd = a, b
		} else if b > curEnd {
			curEnd = b
		}
	}
	if curEnd > curStart {
		total += curEnd - curStart
	}
	return total
}

// traceSummary is what the per-layer metrics take from the spans.
type traceSummary struct {
	byName      map[string][]float64 // span name → wall durations, µs
	selfByName  map[string][]float64 // span name → self times, µs
	bidVirt     []float64            // per creation: first estimate start → last estimate end, virtual s
	selfSumFrac float64              // mean over lifecycles of Σ self / lifecycle span
}

// summarize covers the timed phases only: spans of lifecycle 0 (set-up,
// the query-only phase, teardown) are written out but not counted.
func (t *tracer) summarize() traceSummary {
	out := traceSummary{byName: make(map[string][]float64), selfByName: make(map[string][]float64)}
	if t == nil {
		return out
	}
	self := selfTimes(t.spans)
	type lcKey struct{ epoch, lc int }
	selfSum := make(map[lcKey]float64)
	root := make(map[lcKey]float64)
	type bidKey struct {
		lcKey
		item int
	}
	bidLo := make(map[bidKey]float64)
	bidHi := make(map[bidKey]float64)
	for _, s := range t.spans {
		if s.Lifecycle == 0 {
			continue
		}
		out.byName[s.Name] = append(out.byName[s.Name], s.wallUS())
		out.selfByName[s.Name] = append(out.selfByName[s.Name], self[s.ID])
		k := lcKey{s.Epoch, s.Lifecycle}
		selfSum[k] += self[s.ID]
		if s.layer == layerLifecycle {
			root[k] = s.wallUS()
		}
		if s.Name == "plant.estimate" || s.Name == "rpc.estimate" {
			bk := bidKey{k, s.Item}
			if lo, ok := bidLo[bk]; !ok || s.VirtStart < lo {
				bidLo[bk] = s.VirtStart
			}
			if s.VirtEnd > bidHi[bk] {
				bidHi[bk] = s.VirtEnd
			}
		}
	}
	for bk, lo := range bidLo {
		out.bidVirt = append(out.bidVirt, bidHi[bk]-lo)
	}
	sort.Float64s(out.bidVirt) // map order must not reach the output
	var fracs []float64
	for k, r := range root {
		if r > 0 {
			fracs = append(fracs, selfSum[k]/r)
		}
	}
	sort.Float64s(fracs)
	out.selfSumFrac = mean(fracs)
	return out
}

// write dumps the spans of the first keepEpochs traced epochs.
func (t *tracer) write(path string, keepEpochs int) error {
	var out []*span
	for _, s := range t.spans {
		if s.Epoch < keepEpochs {
			out = append(out, s)
		}
	}
	blob, err := json.Marshal(struct {
		Spans []*span `json:"spans"`
	}{out})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// tracedHandle is the shop.PlantHandle the traced run hands the shop:
// the real handle with a span around each call.
type tracedHandle struct {
	shop.PlantHandle
	t     *tracer
	layer int    // layerPlant in process, layerRPC over tcp
	pfx   string // "plant." or "rpc."
}

func (h *tracedHandle) Estimate(p *sim.Proc, spec *core.Spec) (core.Cost, *classad.Ad, error) {
	lc, item := lifecycleOfName(spec.Name)
	s := h.t.start(h.layer, h.pfx+"estimate", lc, p.Now())
	s.Item = item
	c, ad, err := h.PlantHandle.Estimate(p, spec)
	h.t.end(s, p.Now())
	return c, ad, err
}

func (h *tracedHandle) Create(p *sim.Proc, id core.VMID, spec *core.Spec) (*classad.Ad, error) {
	lc, item := lifecycleOfName(spec.Name)
	s := h.t.start(h.layer, h.pfx+"create", lc, p.Now())
	s.Item = item
	ad, err := h.PlantHandle.Create(p, id, spec)
	h.t.end(s, p.Now())
	return ad, err
}

func (h *tracedHandle) Query(p *sim.Proc, id core.VMID) (*classad.Ad, bool, error) {
	s := h.t.start(h.layer, h.pfx+"query", h.t.actingOn(id), p.Now())
	ad, found, err := h.PlantHandle.Query(p, id)
	h.t.end(s, p.Now())
	return ad, found, err
}

func (h *tracedHandle) Collect(p *sim.Proc, id core.VMID) (bool, error) {
	s := h.t.start(h.layer, h.pfx+"collect", h.t.actingOn(id), p.Now())
	found, err := h.PlantHandle.Collect(p, id)
	h.t.end(s, p.Now())
	return found, err
}
