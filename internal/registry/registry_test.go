package registry

import (
	"vmplants/internal/sim"

	"testing"
	"time"
)

// size counts the bindings, live or lapsed, the directory holds.
func size(r *Registry) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, m := range r.bindings {
		n += len(m)
	}
	return n
}

// addrOf finds a discovered instance's address ("" when it is not live).
func addrOf(r *Registry, service, name string) string {
	for _, b := range r.Discover(service) {
		if b.Name == name {
			return b.Addr
		}
	}
	return ""
}

func TestPublishDiscoverBind(t *testing.T) {
	r := New()
	for _, name := range []string{"node02", "node00", "node01"} {
		if err := r.Publish(Binding{Service: "vmplant", Name: name, Addr: name + ":7001"}, 0); err != nil {
			t.Fatal(err)
		}
	}
	got := r.Discover("vmplant")
	if len(got) != 3 || got[0].Name != "node00" || got[2].Name != "node02" {
		t.Errorf("Discover = %+v", got)
	}
	if addr := addrOf(r, "vmplant", "node01"); addr != "node01:7001" {
		t.Errorf("node01 bound to %q", addr)
	}
	if addr := addrOf(r, "vmplant", "node09"); addr != "" {
		t.Errorf("unknown instance bound to %q", addr)
	}
	if len(r.Discover("vmshop")) != 0 {
		t.Error("unknown service discovered")
	}
}

func TestPublishValidation(t *testing.T) {
	r := New()
	if err := r.Publish(Binding{Service: "", Name: "x"}, 0); err == nil {
		t.Error("empty service accepted")
	}
	if err := r.Publish(Binding{Service: "s", Name: ""}, 0); err == nil {
		t.Error("empty name accepted")
	}
}

func TestLeaseExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	r := New()
	r.now = func() time.Time { return now }
	r.Publish(Binding{Service: "vmplant", Name: "a", Addr: "a:1"}, 10*time.Second)
	r.Publish(Binding{Service: "vmplant", Name: "b", Addr: "b:1"}, 0) // immortal
	if len(r.Discover("vmplant")) != 2 {
		t.Fatal("fresh bindings not visible")
	}
	now = now.Add(11 * time.Second)
	got := r.Discover("vmplant")
	if len(got) != 1 || got[0].Name != "b" {
		t.Errorf("after expiry: %+v", got)
	}
	// Discover compacted the lapsed binding in place: only the immortal
	// one remains.
	if n := size(r); n != 1 {
		t.Errorf("size after compacting Discover = %d, want 1", n)
	}
}

func TestRepublishRefreshesLease(t *testing.T) {
	now := time.Unix(0, 0)
	r := New()
	r.now = func() time.Time { return now }
	r.Publish(Binding{Service: "s", Name: "n", Addr: "v1"}, 10*time.Second)
	now = now.Add(8 * time.Second)
	r.Publish(Binding{Service: "s", Name: "n", Addr: "v2"}, 10*time.Second)
	now = now.Add(8 * time.Second) // 16s after first publish, 8 after refresh
	if addr := addrOf(r, "s", "n"); addr != "v2" {
		t.Errorf("refresh failed: bound to %q", addr)
	}
}

// Plant churn must not grow the directory without bound: every lapsed
// binding is compacted by the next read that touches it.
func TestChurnStaysBounded(t *testing.T) {
	now := time.Unix(0, 0)
	r := New()
	r.now = func() time.Time { return now }
	for i := 0; i < 200; i++ {
		name := "node" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
		r.Publish(Binding{Service: "vmplant", Name: name + string(rune('0'+i%10)), Addr: "x"}, time.Second)
		now = now.Add(2 * time.Second) // each binding lapses before the next publish
		r.Discover("vmplant")
	}
	if n := size(r); n != 0 {
		t.Errorf("size after churn = %d, want 0 (all lapsed bindings compacted)", n)
	}
}

// Leases on a clock that only moves when told to: a plant that
// re-publishes stays discoverable across many TTL windows; once it stops,
// its lease lapses one TTL after the last re-publish, and a re-publish
// brings it back.
func TestLeaseLifecycleUnderSimClock(t *testing.T) {
	k := sim.NewKernel()
	r := New()
	r.now = func() time.Time { return time.Unix(0, 0).Add(k.Now()) }
	const ttl = 5 * time.Second
	k.Spawn("heartbeat", func(p *sim.Proc) {
		for i := 0; i < 5; i++ { // last re-publish at t=8s, lease to 13s
			if err := r.Publish(Binding{Service: "vmplant", Name: "plantA", Addr: "plantA"}, ttl); err != nil {
				t.Error(err)
			}
			p.Sleep(2 * time.Second)
		}
	})
	k.Spawn("observer", func(p *sim.Proc) {
		p.Sleep(12 * time.Second) // several TTLs in, heartbeat just stopped
		if addrOf(r, "vmplant", "plantA") == "" {
			t.Errorf("re-publishing plant not discoverable at %v", p.Now())
		}
		p.Sleep(4 * time.Second) // t=16s: one TTL past the last re-publish
		if got := r.Discover("vmplant"); len(got) != 0 {
			t.Errorf("lapsed plant still discoverable: %+v", got)
		}
		// The empty Discover above compacted the lapsed binding away.
		if n := size(r); n != 0 {
			t.Errorf("size after lapse = %d, want 0", n)
		}
		// The plant comes back: one re-publish restores discovery.
		if err := r.Publish(Binding{Service: "vmplant", Name: "plantA", Addr: "plantA"}, ttl); err != nil {
			t.Error(err)
		}
		if addrOf(r, "vmplant", "plantA") == "" {
			t.Error("re-published plant not discoverable")
		}
	})
	if res := k.Run(0); len(res.Stranded) != 0 {
		t.Fatalf("stranded: %v", res.Stranded)
	}
}
