package plant

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"vmplants/internal/actions"
	"vmplants/internal/classad"
	"vmplants/internal/core"
	"vmplants/internal/dag"
	"vmplants/internal/sim"
)

// longSpec is a request whose plan leaves four residual actions, so a
// plant with PublishBack checkpoints the result back to the warehouse.
func longSpec(t testing.TB, user, domain string) *core.Spec {
	t.Helper()
	g, err := dag.NewBuilder().
		Add("os", act(actions.OpInstallOS, "distro", "mandrake-8.1")).
		Add("vnc", act(actions.OpInstallPackage, "name", "vnc-server"), "os").
		Add("a", act(actions.OpInstallPackage, "name", "pkg-a-"+user), "vnc").
		Add("b", act(actions.OpInstallPackage, "name", "pkg-b"), "a").
		Add("c", act(actions.OpInstallPackage, "name", "pkg-c"), "b").
		Add("user", act(actions.OpCreateUser, "name", user), "c").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return &core.Spec{
		Name:     "long-" + user,
		Hardware: core.HardwareSpec{Arch: "x86", MemoryMB: 64, DiskMB: 2048},
		Domain:   domain,
		Graph:    g,
	}
}

// TestResourceAdMemoMatchesFreshBuild is the memo's twin test: random
// sequences of plant operations — creations left in flight, collects,
// suspend and resume, publish-back and explicit publishes, quarantine
// and repair, monitor passes, warehouse restarts — and after every step the resource ad
// ResourceAd serves must be byte for byte the one a build from scratch
// makes. A fact left out of the memo's key shows as a stale ad.
func TestResourceAdMemoMatchesFreshBuild(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	hits, misses := 0, 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		r := newRig(t, Config{MaxVMs: 8, PublishBack: true})
		rng := rand.New(rand.NewSource(seed))
		var prev *classad.Ad
		check := func(step string) {
			memo := r.pl.ResourceAd()
			r.pl.resAd = nil
			fresh := r.pl.ResourceAd()
			if got, want := memo.AppendXML(nil), fresh.AppendXML(nil); !bytes.Equal(got, want) {
				t.Errorf("seed %d, after %s: memoized ad\n%s\nfresh build\n%s", seed, step, got, want)
			}
			if memo == prev {
				hits++
			} else {
				misses++
			}
			prev = fresh
		}
		n := 0
		// Operations may fail (capacity, no free network, a quarantined
		// image, a suspended VM): a failure is a step like any other.
		r.run(t, func(p *sim.Proc) {
			for step := 0; step < 60 && !t.Failed(); step++ {
				ids := r.pl.info.IDs()
				pick := func() (core.VMID, bool) {
					if len(ids) == 0 {
						return "", false
					}
					return ids[rng.Intn(len(ids))], true
				}
				var what string
				switch op := rng.Intn(8); op {
				case 0, 1:
					n++
					id := core.VMID(fmt.Sprintf("vm-%d", n))
					user, domain := fmt.Sprintf("u%d", rng.Intn(6)), fmt.Sprintf("d%d", rng.Intn(5))
					sp := spec(t, user)
					sp.Domain = domain
					if op == 1 {
						sp = longSpec(t, user, domain)
					}
					// Left in flight: later steps see its clone slot, its
					// network and its memory before the VM is stored.
					p.Kernel().Spawn("create-"+string(id), func(cp *sim.Proc) { _, _ = r.pl.Create(cp, id, sp) })
					what = "create " + string(id)
				case 2:
					if id, ok := pick(); ok {
						_ = r.pl.Collect(p, id)
						what = "collect " + string(id)
					}
				case 3:
					if id, ok := pick(); ok {
						if err := r.pl.SuspendVM(p, id); err != nil {
							_ = r.pl.ResumeVM(p, id)
						}
						what = "suspend/resume " + string(id)
					}
				case 4:
					if id, ok := pick(); ok {
						_ = r.pl.PublishImage(p, id, fmt.Sprintf("pub-%d-%d", seed, step))
						what = "publish " + string(id)
					}
				case 5:
					names := r.wh.List()
					name := names[rng.Intn(len(names))]
					if !r.wh.Quarantine(name, "twin") {
						r.wh.Unquarantine(name)
					}
					what = "quarantine/repair " + name
				case 6:
					r.pl.MonitorTick(p)
					what = "monitor tick"
				case 7:
					r.wh.Restart()
					what = "warehouse restart"
				}
				if what != "" {
					check(what)
				}
				p.Sleep(time.Duration(rng.Intn(30_000)) * time.Millisecond)
				check("a wait")
			}
		})
	}
	// Both paths ran: the memo served unchanged plants and was rebuilt
	// after changes.
	if hits == 0 || misses == 0 {
		t.Errorf("memo hits %d, misses %d: want some of each", hits, misses)
	}
}

// TestServedAdsAreFrozen: every ad the plant hands out — its resource
// ad, a creation's ad, a query's — is a snapshot a setter cannot edit,
// and a later change of state replaces it rather than editing the one a
// reader holds. A Clone of one is the reader's own to edit.
func TestServedAdsAreFrozen(t *testing.T) {
	r := newRig(t, Config{})
	r.run(t, func(p *sim.Proc) {
		created, err := r.pl.Create(p, "vm-f-1", spec(t, "u1"))
		if err != nil {
			t.Fatal(err)
		}
		queried, _ := r.pl.Query(p, "vm-f-1")
		served := map[string]*classad.Ad{"ResourceAd": r.pl.ResourceAd(), "Create": created, "Query": queried}
		before := map[string]string{}
		for what, ad := range served {
			before[what] = string(ad.AppendXML(nil))
			mustPanic(t, what+" SetInt", func() { ad.SetInt("X", 1) })
			mustPanic(t, what+" Merge", func() { ad.Merge(classad.New().SetInt("X", 1)) })
			mustPanic(t, what+" Grow", func() { ad.Grow(1) })
			mustPanic(t, what+" SetExprString", func() { ad.SetExprString("X", "1 + 1") })
			c := ad.Clone().SetInt("X", 1)
			if c.GetInt("X", 0) != 1 || ad.GetInt("X", 0) != 0 {
				t.Errorf("%s: a clone is not the reader's own to edit", what)
			}
		}
		p.Sleep(30 * time.Second)
		if err := r.pl.SuspendVM(p, "vm-f-1"); err != nil {
			t.Fatal(err)
		}
		r.pl.MonitorTick(p)
		later, _ := r.pl.Query(p, "vm-f-1")
		if later.GetString(core.AttrState, "") != "suspended" || later.GetInt(core.AttrUptimeSecs, 0) < 30 {
			t.Errorf("a later query does not state the change: %s", later)
		}
		for what, ad := range served {
			if got := string(ad.AppendXML(nil)); got != before[what] {
				t.Errorf("%s: the ad a reader holds changed\nfrom %s\nto   %s", what, before[what], got)
			}
		}
	})
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s on a served ad did not panic", what)
		}
	}()
	f()
}
