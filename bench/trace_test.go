package main

import "testing"

func sp(id, parent int, start, end int64) *span {
	return &span{ID: id, Parent: parent, WallStart: start, WallEnd: end}
}

// Self time is the span minus the union of its children, so children
// that overlap each other are not subtracted twice, and a child that
// outlives its parent is clipped to it.
func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []*span{
		sp(1, 0, 0, 100_000),
		sp(2, 1, 10_000, 30_000),
		sp(3, 1, 20_000, 50_000), // overlaps 2
		sp(4, 1, 60_000, 70_000),
		sp(5, 1, 90_000, 120_000), // runs past the parent
		sp(6, 3, 25_000, 45_000),  // grandchild: only 3 pays for it
	}
	self := selfTimes(spans)
	for id, want := range map[int]float64{
		1: 40, // 100 − ([10,50] ∪ [60,70] ∪ [90,100]) = 100 − 60
		2: 20,
		3: 10, // 30 − 20
		4: 10,
		5: 30,
		6: 20,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v µs, want %v", id, self[id], want)
		}
	}
}

// Nested spans of one lifecycle partition its wall time exactly.
func TestSelfTimesOfNestedSpansSumToTheRoot(t *testing.T) {
	tr := newTracer()
	root := tr.start(layerLifecycle, "lifecycle", 7, 0)
	a := tr.start(layerShop, "shop.create", 7, 0)
	b := tr.start(layerPlant, "plant.estimate", 7, 0)
	tr.end(b, 0)
	c := tr.start(layerPlant, "plant.create", 7, 0)
	tr.end(c, 0)
	tr.end(a, 0)
	other := tr.start(layerShop, "shop.query", 8, 0) // another lifecycle: no parent here
	tr.end(other, 0)
	tr.end(root, 0)

	if a.Parent != root.ID || b.Parent != a.ID || c.Parent != a.ID || other.Parent != 0 {
		t.Fatalf("parents: shop %d plant %d %d other %d", a.Parent, b.Parent, c.Parent, other.Parent)
	}
	self := selfTimes(tr.spans)
	var total float64
	for _, s := range []*span{root, a, b, c} {
		total += self[s.ID]
	}
	if want := root.wallUS(); total < want-0.001 || total > want+0.001 {
		t.Errorf("self times sum to %v µs, lifecycle span is %v µs", total, want)
	}
	if got := tr.summarize().selfSumFrac; got < 0.999 || got > 1.001 {
		t.Errorf("selfSumFrac = %v, want 1", got)
	}
}

func TestLifecycleOfName(t *testing.T) {
	if lc, item := lifecycleOfName(specName(42, 7)); lc != 42 || item != 7 {
		t.Errorf("round trip gave %d, %d", lc, item)
	}
	if lc, _ := lifecycleOfName("workspace-user0001"); lc != 0 {
		t.Errorf("foreign name gave lifecycle %d", lc)
	}
}
