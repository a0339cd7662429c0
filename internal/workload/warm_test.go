package workload

import (
	"fmt"
	"strings"
	"testing"

	"vmplants/internal/core"
	"vmplants/internal/plant"
	"vmplants/internal/shop"
	"vmplants/internal/sim"
)

// concurrentPublishFingerprint drives one batched CreateMany of
// duplicate-user requests against a single warehouse with publish-back
// enabled, and digests every observable: per-request outcome, the
// warehouse's image list, and each image's reference count. Duplicate
// users make concurrent creations race to publish the same derived
// name; the loser's checkpoint must be dropped, not double-registered.
func concurrentPublishFingerprint(t *testing.T, seed int64) string {
	t.Helper()
	d, err := NewDeployment(Options{
		Plants:        4,
		Seed:          seed,
		GoldenSizesMB: []int{64},
		PlantConfig:   plant.Config{PublishBack: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Warehouse.SetCapacity(d.Warehouse.BytesUsed() + 500<<20)

	// Twelve requests over three users: every user's DAG is requested
	// concurrently several times.
	var specs []*core.Spec
	for i := 0; i < 12; i++ {
		spec, err := d.userEnvSpec(i%3+1, 64)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	var results []shop.BatchResult
	err = d.Run(func(p *sim.Proc) error {
		results = d.Shop.CreateMany(p, specs)
		// Let the off-critical-path publish uploads drain, then end
		// every session so the images' reference counts settle.
		p.Sleep(sim.Seconds(60))
		for _, r := range results {
			if r.Err == nil {
				if derr := d.Shop.Destroy(p, r.VMID); derr != nil {
					t.Errorf("destroy %s: %v", r.VMID, derr)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var lines []string
	for i, r := range results {
		if r.Err != nil {
			t.Errorf("request %d failed: %v", i, r.Err)
			continue
		}
		lines = append(lines, fmt.Sprintf("req=%d golden=%s matched=%d",
			i, r.Ad.GetString(core.AttrGoldenImage, ""), r.Ad.GetInt(core.AttrMatchedOps, 0)))
	}
	derived := 0
	for _, n := range d.Warehouse.List() {
		im, _ := d.Warehouse.Lookup(n)
		lines = append(lines, fmt.Sprintf("image=%s derived=%v refs=%d uses=%d",
			n, im.Derived, im.Refs(), im.Uses()))
		if im.Derived {
			derived++
			if im.Refs() != 0 {
				t.Errorf("derived image %s still referenced after all sessions ended: %d", n, im.Refs())
			}
		}
	}
	// Three distinct DAGs, one derived image each — the publish races
	// must collapse onto one registration per fingerprint.
	if derived != 3 {
		t.Errorf("%d derived images, want 3 (one per distinct user DAG)", derived)
	}
	return strings.Join(lines, "\n")
}

// Run under -race in CI: concurrent creations with publish-back share
// Image.refs and the clone cache through the kernel's serialization,
// and same-seed runs must stay byte-identical.
func TestConcurrentPublishBackDeterministic(t *testing.T) {
	a := concurrentPublishFingerprint(t, 21)
	b := concurrentPublishFingerprint(t, 21)
	if a != b {
		t.Errorf("same-seed concurrent publish-back runs diverged:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}
