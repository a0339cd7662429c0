package warehouse

import (
	"errors"
	"fmt"
	"testing"

	"vmplants/internal/core"
	"vmplants/internal/journal"
	"vmplants/internal/telemetry"
)

// publishN publishes n golden images named g0..g(n-1).
func publishN(t *testing.T, w *Warehouse, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		im, err := BuildGolden(fmt.Sprintf("g%d", i), hw(), BackendVMware, history())
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Publish(im); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOpenCloneHitMiss(t *testing.T) {
	w := newWarehouse()
	hub := telemetry.New()
	w.SetTelemetry(hub)
	publishN(t, w, 1)

	ctx, err := w.OpenClone("g0")
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Image.Name != "g0" {
		t.Errorf("image = %q", ctx.Image.Name)
	}
	if ctx.Epoch != ctx.Image.Epoch() || ctx.MemReplica != replicaPath("g0", ctx.Epoch) {
		t.Errorf("context = %+v", ctx)
	}
	again, err := w.OpenClone("g0")
	if err != nil {
		t.Fatal(err)
	}
	if again != ctx {
		t.Error("second open did not reuse the epoch's context")
	}
	if hits, misses := w.CacheStats(); hits != 1 || misses != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", hits, misses)
	}
	if _, err := w.OpenClone("nope"); err == nil {
		t.Error("open of unpublished image succeeded")
	}
}

// Every published image keeps its own context, however many there are:
// opening twelve round-robin three times verifies each once.
func TestOpenCloneOncePerEpoch(t *testing.T) {
	w := newWarehouse()
	w.SetTelemetry(telemetry.New())
	publishN(t, w, 12)

	first := make(map[string]*CloneContext)
	for round := 0; round < 3; round++ {
		for i := 0; i < 12; i++ {
			name := fmt.Sprintf("g%d", i)
			ctx, err := w.OpenClone(name)
			if err != nil {
				t.Fatal(err)
			}
			if round == 0 {
				first[name] = ctx
			} else if ctx != first[name] {
				t.Errorf("round %d: %s built a second context in one epoch", round, name)
			}
		}
	}
	if hits, misses := w.CacheStats(); hits != 24 || misses != 12 {
		t.Errorf("hits=%d misses=%d, want 24/12", hits, misses)
	}
}

// Each way an image's context goes stale forces exactly one
// re-verification, and the context it builds is for the image and epoch
// now published.
func TestStaleContextReverifiesOnce(t *testing.T) {
	for _, tc := range []struct {
		name string
		// stale reports whether a context opened before the change fails
		// VerifyClone. A restart loses the contexts but not the epoch, so
		// the node replicas named after it stay valid.
		stale  bool
		change func(t *testing.T, w *Warehouse)
	}{
		{"quarantine-repair", true, func(t *testing.T, w *Warehouse) {
			w.Quarantine("g0", "test")
			w.Unquarantine("g0")
		}},
		{"restart", false, func(t *testing.T, w *Warehouse) {
			w.Restart()
		}},
		{"republish", true, func(t *testing.T, w *Warehouse) {
			if err := w.Remove("g0"); err != nil {
				t.Fatal(err)
			}
			publishN(t, w, 1)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWarehouse()
			w.SetTelemetry(telemetry.New())
			publishN(t, w, 1)
			old, err := w.OpenClone("g0")
			if err != nil {
				t.Fatal(err)
			}
			tc.change(t, w)
			for i := 0; i < 3; i++ {
				if _, err := w.OpenClone("g0"); err != nil {
					t.Fatal(err)
				}
			}
			if hits, misses := w.CacheStats(); hits != 2 || misses != 2 {
				t.Errorf("hits=%d misses=%d, want 2/2: one re-verification", hits, misses)
			}
			ctx, _ := w.OpenClone("g0")
			im, _ := w.Lookup("g0")
			if ctx == old || ctx.Image != im || ctx.Epoch != im.Epoch() ||
				ctx.MemReplica != replicaPath("g0", im.Epoch()) {
				t.Errorf("context %+v for image at epoch %d (old %+v)", ctx, im.Epoch(), old)
			}
			if err := w.VerifyClone(old); (err != nil) != tc.stale {
				t.Errorf("VerifyClone(old) = %v, want stale=%v", err, tc.stale)
			}
		})
	}
}

// The quarantine refusal comes before reuse: even a context at the
// image's current epoch is not handed out while the image is
// quarantined. (Quarantine itself moves the epoch; recording the entry
// alone keeps it, so only the refusal can stop the open.)
func TestOpenCloneRefusesQuarantineBeforeReuse(t *testing.T) {
	w := newWarehouse()
	publishN(t, w, 1)
	if _, err := w.OpenClone("g0"); err != nil {
		t.Fatal(err)
	}
	w.record(journal.QuarantineEnter, "g0", map[string]string{"reason": "test"})
	if _, err := w.OpenClone("g0"); !errors.Is(err, core.ErrTransient) {
		t.Fatalf("open of quarantined image: %v, want transient refusal", err)
	}
}

func TestCloneCacheInvalidatedOnRemove(t *testing.T) {
	w := newWarehouse()
	publishN(t, w, 2)
	ctx, err := w.OpenClone("g0")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Remove("g0"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.OpenClone("g0"); err == nil {
		t.Error("open of removed image succeeded")
	}
	if err := w.VerifyClone(ctx); !errors.Is(err, core.ErrTransient) {
		t.Errorf("context of removed image verified: %v", err)
	}
}
