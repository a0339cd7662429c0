package plant

import (
	"fmt"
	"testing"

	"vmplants/internal/actions"
	"vmplants/internal/core"
	"vmplants/internal/fault"
	"vmplants/internal/journal"
	"vmplants/internal/sim"
)

// liveVMs is Recover's whole reading of the journal: created minus
// collected, by key, whatever else the shared log carries.
func TestLiveVMsFold(t *testing.T) {
	rec := func(kind journal.Kind, key string) journal.Record {
		return journal.Record{Kind: kind, Key: key, Fields: map[string]string{"plant": "node00"}}
	}
	for _, tc := range []struct {
		name string
		log  []journal.Record
		want []core.VMID
	}{
		{"empty log", nil, nil},
		{"created stays live", []journal.Record{rec(journal.VMCreated, "vm-1"), rec(journal.VMCreated, "vm-2")}, []core.VMID{"vm-1", "vm-2"}},
		{"collected leaves", []journal.Record{rec(journal.VMCreated, "vm-1"), rec(journal.VMCreated, "vm-2"), rec(journal.VMCollected, "vm-1")}, []core.VMID{"vm-2"}},
		{"collect of an unknown VM changes nothing", []journal.Record{rec(journal.VMCollected, "vm-9"), rec(journal.VMCreated, "vm-1")}, []core.VMID{"vm-1"}},
		{"re-created after collect is live again", []journal.Record{rec(journal.VMCreated, "vm-1"), rec(journal.VMCollected, "vm-1"), rec(journal.VMCreated, "vm-1")}, []core.VMID{"vm-1"}},
		{"created twice is one VM", []journal.Record{rec(journal.VMCreated, "vm-1"), rec(journal.VMCreated, "vm-1"), rec(journal.VMCollected, "vm-1")}, nil},
		{"crash, recover and the warehouse's kinds are not the plant's", []journal.Record{
			rec(journal.VMCreated, "vm-1"), rec(journal.PlantCrash, "node00"), rec(journal.PlantRecover, "node00"),
			rec(journal.ImagePublish, "vm-1"), rec(journal.ImageRetire, "vm-1"), rec(journal.ExtentRelease, "vm-1"),
		}, []core.VMID{"vm-1"}},
	} {
		live := make(map[core.VMID]bool)
		for _, r := range tc.log {
			liveVMs(live, r)
		}
		if len(live) != len(tc.want) {
			t.Errorf("%s: live = %v, want %v", tc.name, live, tc.want)
		}
		for _, id := range tc.want {
			if !live[id] {
				t.Errorf("%s: %s not live in %v", tc.name, id, live)
			}
		}
	}
}

func TestCrashLosesSoftStateOnly(t *testing.T) {
	r := newRig(t, Config{MaxVMs: 8})
	r.run(t, func(p *sim.Proc) {
		if _, err := r.pl.Create(p, "vm-c-1", spec(t, "u1")); err != nil {
			t.Fatal(err)
		}
		if _, err := r.pl.Create(p, "vm-c-2", spec(t, "u2")); err != nil {
			t.Fatal(err)
		}
		r.pl.Crash()
		if !r.pl.Down() {
			t.Fatal("crashed plant not down")
		}
		// The information system (soft state) is gone...
		if r.pl.ActiveVMs() != 0 {
			t.Errorf("info system survived the crash: %d records", r.pl.ActiveVMs())
		}
		if _, ok := r.pl.Query(p, "vm-c-1"); ok {
			t.Error("classad survived the crash")
		}
		// ...but the host state is not: VMs still run, networks held.
		if got := r.tb.Nodes[0].VMs(); got != 2 {
			t.Errorf("host lost VMs with the daemon: %d running", got)
		}
		if free := r.pl.Networks().FreeCount(); free == r.pl.Networks().Size() {
			t.Error("crash released the host-only network")
		}
	})
}

func TestRecoverRebuildsInfoSystem(t *testing.T) {
	r := newRig(t, Config{MaxVMs: 8})
	r.run(t, func(p *sim.Proc) {
		ad1, err := r.pl.Create(p, "vm-c-1", spec(t, "u1"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.pl.Create(p, "vm-c-2", spec(t, "u2")); err != nil {
			t.Fatal(err)
		}
		r.pl.Crash()
		before := p.Now()
		if n := r.pl.Recover(p); n != 2 {
			t.Fatalf("Recover rebuilt %d records, want 2", n)
		}
		if p.Now() == before {
			t.Error("recovery was free; restart and rescan should cost virtual time")
		}
		if r.pl.Down() {
			t.Fatal("recovered plant still down")
		}
		if r.pl.ActiveVMs() != 2 {
			t.Fatalf("info system has %d records, want 2", r.pl.ActiveVMs())
		}
		ad, ok := r.pl.Query(p, "vm-c-1")
		if !ok {
			t.Fatal("recovered VM unknown")
		}
		// Host-observable attributes come back; the rebuilt ad says so.
		if ad.GetString("Recovered", "") != "true" {
			t.Error("rebuilt ad not marked Recovered")
		}
		for _, attr := range []string{core.AttrVMID, core.AttrDomain, core.AttrNetwork, core.AttrMAC} {
			if ad.GetString(attr, "") != ad1.GetString(attr, "") {
				t.Errorf("%s: rebuilt %q, original %q", attr, ad.GetString(attr, ""), ad1.GetString(attr, ""))
			}
		}
		// The requested display name was daemon soft state; the rescan
		// reports what the host actually registered (the golden's name).
		vm, _ := r.pl.VM("vm-c-1")
		if got := ad.GetString(core.AttrName, ""); got != vm.Name() {
			t.Errorf("rebuilt name %q, host name %q", got, vm.Name())
		}
		// What only the dead daemon knew is honestly gone.
		if ad.GetReal(core.AttrCloneSecs, -1) != -1 {
			t.Error("clone latency resurrected from nothing")
		}
		// The recovered daemon manages its VMs end to end.
		if err := r.pl.Collect(p, "vm-c-1"); err != nil {
			t.Fatalf("collect after recovery: %v", err)
		}
		if err := r.pl.Collect(p, "vm-c-2"); err != nil {
			t.Fatalf("collect after recovery: %v", err)
		}
		if free, size := r.pl.Networks().FreeCount(), r.pl.Networks().Size(); free != size {
			t.Errorf("networks leaked across crash/recover: %d/%d free", free, size)
		}
	})
}

func TestRecoverIsIdempotent(t *testing.T) {
	r := newRig(t, Config{MaxVMs: 8})
	r.run(t, func(p *sim.Proc) {
		if n := r.pl.Recover(p); n != 0 {
			t.Fatalf("recover on healthy plant rebuilt %d records", n)
		}
		if _, err := r.pl.Create(p, "vm-c-1", spec(t, "u1")); err != nil {
			t.Fatal(err)
		}
		r.pl.Crash()
		r.pl.Crash() // double crash is one crash
		if n := r.pl.Recover(p); n != 1 {
			t.Fatalf("Recover rebuilt %d records, want 1", n)
		}
		if n := r.pl.Recover(p); n != 0 {
			t.Fatalf("second Recover rebuilt %d records, want 0", n)
		}
	})
}

// Satellite: DAG error policies under registry-injected action failures
// must behave identically across runs with the same seed — the
// injection draws ride the plant's deterministic RNG.
func TestErrorPolicyUnderInjectionDeterministic(t *testing.T) {
	outcomes := func(seed int64) string {
		reg := fault.NewRegistry(seed)
		reg.SetProb("node00", fault.ActionFail, actions.OpCreateUser, 0.5)
		r := newRig(t, Config{MaxVMs: 16, Faults: reg})
		var out string
		r.run(t, func(p *sim.Proc) {
			for i := 0; i < 8; i++ {
				s := spec(t, fmt.Sprintf("u%d", i))
				n, _ := s.Graph.Node("user")
				n.OnError.Retries = 1
				_, err := r.pl.Create(p, core.VMID(fmt.Sprintf("vm-d-%d", i)), s)
				if err == nil {
					out += "S"
				} else {
					out += "F"
				}
			}
		})
		return out
	}
	a, b := outcomes(11), outcomes(11)
	if a != b {
		t.Fatalf("same seed diverged: %s vs %s", a, b)
	}
	if a != outcomes(11) {
		t.Fatalf("third run diverged from %s", a)
	}
	// With failure probability 0.5 and one retry, 8 requests should see
	// both outcomes; an all-S or all-F string means injection is dead.
	if a == "SSSSSSSS" || a == "FFFFFFFF" {
		t.Errorf("degenerate outcome pattern %s", a)
	}
}

// Satellite: Continue lets configuration proceed past an injected
// failure every time, regardless of seed.
func TestErrorPolicyContinueUnderInjection(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		reg := fault.NewRegistry(seed)
		reg.SetProb("node00", fault.ActionFail, actions.OpCreateUser, 1.0)
		r := newRig(t, Config{MaxVMs: 4, Faults: reg})
		r.run(t, func(p *sim.Proc) {
			s := spec(t, "u1")
			n, _ := s.Graph.Node("user")
			n.OnError.Continue = true
			if _, err := r.pl.Create(p, "vm-k-1", s); err != nil {
				t.Fatalf("seed %d: create with continue policy failed: %v", seed, err)
			}
			vm, _ := r.pl.VM("vm-k-1")
			if vm.Guest().Users["u1"] {
				t.Errorf("seed %d: failed action applied anyway", seed)
			}
		})
	}
}
