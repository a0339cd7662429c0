package registry

import (
	"vmplants/internal/sim"

	"testing"
	"time"
)

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
	b, err := r.Bind("vmplant", "node01")
	if err != nil || b.Addr != "node01:7001" {
		t.Errorf("Bind = %+v, %v", b, err)
	}
	if _, err := r.Bind("vmplant", "node09"); err == nil {
		t.Error("bind to unknown instance succeeded")
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
	r.Now = func() time.Time { return now }
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
	// one remains and there is nothing left for Sweep to do.
	if n := r.Size(); n != 1 {
		t.Errorf("Size after compacting Discover = %d, want 1", n)
	}
	if _, err := r.Bind("vmplant", "a"); err == nil {
		t.Error("expired binding bound")
	}
	if n := r.Sweep(); n != 0 {
		t.Errorf("Sweep removed %d, want 0 (already compacted)", n)
	}
	// Sweep still works on bindings nobody has read since they lapsed.
	r.Publish(Binding{Service: "vmplant", Name: "c", Addr: "c:1"}, time.Second)
	now = now.Add(2 * time.Second)
	if n := r.Sweep(); n != 1 {
		t.Errorf("Sweep removed %d, want 1", n)
	}
}

func TestRepublishRefreshesLease(t *testing.T) {
	now := time.Unix(0, 0)
	r := New()
	r.Now = func() time.Time { return now }
	r.Publish(Binding{Service: "s", Name: "n", Addr: "v1"}, 10*time.Second)
	now = now.Add(8 * time.Second)
	r.Publish(Binding{Service: "s", Name: "n", Addr: "v2"}, 10*time.Second)
	now = now.Add(8 * time.Second) // 16s after first publish, 8 after refresh
	b, err := r.Bind("s", "n")
	if err != nil || b.Addr != "v2" {
		t.Errorf("refresh failed: %+v, %v", b, err)
	}
}

// Plant churn must not grow the directory without bound: every lapsed
// binding is compacted by the next read that touches it.
func TestChurnStaysBounded(t *testing.T) {
	now := time.Unix(0, 0)
	r := New()
	r.Now = func() time.Time { return now }
	for i := 0; i < 200; i++ {
		name := "node" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
		r.Publish(Binding{Service: "vmplant", Name: name + string(rune('0'+i%10)), Addr: "x"}, time.Second)
		now = now.Add(2 * time.Second) // each binding lapses before the next publish
		r.Discover("vmplant")
	}
	if n := r.Size(); n != 0 {
		t.Errorf("Size after churn = %d, want 0 (all lapsed bindings compacted)", n)
	}
}

// Leases under the simulation kernel: a cell that heartbeats stays
// bindable across many TTL windows; once the heartbeat stops, the lease
// lapses one TTL later in virtual time, and a re-publish resurrects it.
// This is the clock wiring the federation coordinator relies on — the
// registry never reads wall time during a simulated run.
func TestLeaseLifecycleUnderSimClock(t *testing.T) {
	k := sim.NewKernel()
	r := New()
	r.Now = func() time.Time { return time.Unix(0, 0).Add(k.Now()) }
	const ttl = 5 * time.Second
	k.Spawn("heartbeat", func(p *sim.Proc) {
		for i := 0; i < 5; i++ { // last re-publish at t=8s, lease to 13s
			if err := r.Publish(Binding{Service: "vmshop", Name: "cellA", Addr: "cellA"}, ttl); err != nil {
				t.Error(err)
			}
			p.Sleep(2 * time.Second)
		}
	})
	k.Spawn("observer", func(p *sim.Proc) {
		p.Sleep(12 * time.Second) // several TTLs in, heartbeat just stopped
		if _, err := r.Bind("vmshop", "cellA"); err != nil {
			t.Errorf("heartbeating cell not bindable at %v: %v", p.Now(), err)
		}
		p.Sleep(4 * time.Second) // t=16s: one TTL past the last re-publish
		if _, err := r.Bind("vmshop", "cellA"); err == nil {
			t.Error("lease survived the heartbeat stopping")
		}
		if got := r.Discover("vmshop"); len(got) != 0 {
			t.Errorf("lapsed cell still discoverable: %+v", got)
		}
		// The failed Bind and empty Discover above already compacted the
		// lapsed binding away.
		if n := r.Size(); n != 0 {
			t.Errorf("Size after lapse = %d, want 0", n)
		}
		if n := r.Sweep(); n != 0 {
			t.Errorf("Sweep removed %d bindings, want 0 (already compacted)", n)
		}
		// The cell comes back: one re-publish restores discovery.
		if err := r.Publish(Binding{Service: "vmshop", Name: "cellA", Addr: "cellA"}, ttl); err != nil {
			t.Error(err)
		}
		if _, err := r.Bind("vmshop", "cellA"); err != nil {
			t.Errorf("re-published cell not bindable: %v", err)
		}
	})
	if res := k.Run(0); len(res.Stranded) != 0 {
		t.Fatalf("stranded: %v", res.Stranded)
	}
}
