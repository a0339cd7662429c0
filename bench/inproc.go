package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"vmplants/internal/actions"
	"vmplants/internal/classad"
	"vmplants/internal/core"
	"vmplants/internal/dag"
	"vmplants/internal/journal"
	"vmplants/internal/proto"
	"vmplants/internal/shop"
	"vmplants/internal/sim"
	"vmplants/internal/telemetry"
	"vmplants/internal/warehouse"
	"vmplants/internal/workload"
)

// This file is the in-process transport: one client process driving the
// shop by direct calls inside the site's one simulation kernel (churn,
// batch, catalog and the price list's ablations).

// inProcess returns the build function of a workload that runs on the
// preset in process.
func inProcess(o presetOptions) func(int64, *shape, *tracer) (transport, error) {
	return func(seed int64, sh *shape, tr *tracer) (transport, error) {
		var wrap func(shop.PlantHandle) shop.PlantHandle
		if tr != nil {
			wrap = func(h shop.PlantHandle) shop.PlantHandle {
				return &tracedHandle{PlantHandle: h, t: tr, layer: layerPlant, pfx: "plant."}
			}
		}
		s, err := newSite(seed, o, wrap)
		if err != nil {
			return nil, err
		}
		if sh.users > 0 {
			s.owners = zipfStream(sh.users, sh.zipfS, sh.resident+sh.lifecycles, sim.NewRNG(mix64(seed, 13)))
		}
		return s, nil
	}
}

var memorySizesMB = []int{32, 64, 256}

// mix64 derives a private generator seed from the epoch seed.
func mix64(seed int64, salt int64) int64 { return seed*1000003 + salt }

// zipfStream is an epoch's request owners: each user appears as often
// as the Zipf law says, to the nearest request (largest remainders
// first), and the seed only shuffles the order. Drawing every owner
// independently would make how many cold users an epoch meets — and so
// its allocations and latency — vary with the seed by several percent.
func zipfStream(users int, s float64, n int, rng *sim.RNG) []int {
	weights := make([]float64, users)
	var total float64
	for k := range weights {
		weights[k] = 1 / math.Pow(float64(k+1), s)
		total += weights[k]
	}
	var stream, byRemainder []int
	remainder := make([]float64, users)
	for k, wt := range weights {
		share := wt / total * float64(n)
		for i := 0; i < int(share); i++ {
			stream = append(stream, k)
		}
		remainder[k] = share - math.Floor(share)
		byRemainder = append(byRemainder, k)
	}
	sort.SliceStable(byRemainder, func(i, j int) bool { return remainder[byRemainder[i]] > remainder[byRemainder[j]] })
	for _, k := range byRemainder[:n-len(stream)] {
		stream = append(stream, k)
	}
	out := make([]int, n)
	for i, j := range rng.Perm(n) {
		out[i] = stream[j]
	}
	return out
}

func (s *site) clients() int { return 1 }

// run executes body as the client process and drives the kernel until
// nothing is left to do, background hydration and publish-back
// included. The virtual span is the body's own: what the kernel does
// after the client's last reply is not the client's time.
func (s *site) run(body func(client int) error) (phase, error) {
	var ph phase
	var err error
	s.createVirt = nil
	s.d.Kernel.Spawn("client", func(p *sim.Proc) {
		s.p = p
		v0 := p.Now()
		err = body(0)
		ph.virtSecs = (p.Now() - v0).Seconds()
	})
	res := s.d.Kernel.Run(0)
	s.p = nil
	if len(res.Stranded) != 0 {
		return ph, fmt.Errorf("stranded processes: %v", res.Stranded)
	}
	ph.createVirt = s.createVirt
	return ph, err
}

func (s *site) now(int) time.Duration { return s.p.Now() }

func (s *site) boundary() (int, string) { return layerShop, "shop." }

// spec is a 32/64/256 MB In-VIGO workspace, round-robin, or, with
// owners, the owner's personalisation of the 64 MB one.
func (s *site) spec(_, seq int) (*core.Spec, error) {
	if s.owners == nil {
		return s.d.WorkspaceSpec(seq, memorySizesMB[seq%len(memorySizesMB)])
	}
	user := s.owners[seq-1] + 1
	g, err := workload.InVigoUserEnvDAG(fmt.Sprintf("user%04d", user),
		fmt.Sprintf("00:50:56:00:%02x:%02x", user>>8, user&0xff),
		fmt.Sprintf("10.1.%d.%d", user/250, user%250+1))
	if err != nil {
		return nil, err
	}
	return &core.Spec{
		Hardware: core.HardwareSpec{Arch: "x86", MemoryMB: 64, DiskMB: s.d.Opts.GoldenDiskMB},
		Domain:   "ufl.edu",
		Backend:  s.d.Opts.Backend,
		Graph:    g,
	}, nil
}

// create is Shop.Create for one spec and Shop.CreateMany for several. A
// creation's virtual latency runs from the request to the reply; in a
// batch, from submission to the CreatedAt stamp in the item's classad.
func (s *site) create(_ int, specs []*core.Spec) []shop.BatchResult {
	start := s.p.Now()
	if len(specs) == 1 {
		id, ad, err := s.shop.Create(s.p, specs[0])
		if err == nil {
			s.createVirt = append(s.createVirt, (s.p.Now() - start).Seconds())
		}
		return []shop.BatchResult{{VMID: id, Ad: ad, Err: err}}
	}
	results := s.shop.CreateMany(s.p, specs)
	for _, r := range results {
		if r.Err == nil {
			s.createVirt = append(s.createVirt, r.Ad.GetReal(core.AttrCreatedAt, 0)-start.Seconds())
		}
	}
	return results
}

func (s *site) query(_ int, id core.VMID) (*classad.Ad, error) { return s.shop.Query(s.p, id) }

func (s *site) destroy(_ int, id core.VMID) error { return s.shop.Destroy(s.p, id) }

func (s *site) restart() (st shop.RestartStats, err error) {
	_, rerr := s.run(func(int) error {
		s.shop.Kill()
		st, err = s.shop.Restart(s.p)
		return nil
	})
	if rerr != nil {
		return st, rerr
	}
	return st, err
}

func (s *site) journals() []*journal.Journal { return s.jnls }

func (s *site) hubs() []*telemetry.Hub { return []*telemetry.Hub{s.hub} }

func (s *site) wire() wireCounts { return wireCounts{} }

func (s *site) close() {}

func (s *site) warehouse() *warehouse.Warehouse { return s.d.Warehouse }

func (s *site) micro(last *core.Spec) microInputs {
	return microInputs{
		spec: last, wh: s.d.Warehouse, plantAd: s.d.Plants[0].ResourceAd(), shopJnl: s.jnls[0],
		createMsg: &proto.Message{Kind: proto.KindCreateRequest, Create: proto.FromSpec(last, "")},
	}
}

// publishCatalogSeeds adds n seed images with random configuration
// histories, so the matcher ranks a few dozen candidates per request as
// a long-lived warehouse's would: some are shorter prefixes of the
// In-VIGO history (feasible, lower score), some diverge after a shared
// prefix (rejected late), some are other distributions (rejected at
// once).
func publishCatalogSeeds(wh *warehouse.Warehouse, backend string, diskMB, n int, rng *sim.RNG) error {
	act := func(op, key, val string) dag.Action {
		tgt, _ := actions.DefaultTarget(op)
		return dag.Action{Op: op, Target: tgt, Params: map[string]string{key: val}}
	}
	distros := []string{"redhat-8.0", "redhat-8.0", "redhat-8.0", "debian-3.0", "suse-9.0"}
	prefix := []string{"vnc-server", "web-file-manager"}
	extras := []string{"gcc", "matlab", "octave", "gaussian", "namd", "blast", "globus", "condor"}
	for i := 0; i < n; i++ {
		hist := []dag.Action{act(actions.OpInstallOS, "distro", distros[rng.Intn(len(distros))])}
		for _, pkg := range prefix[:rng.Intn(len(prefix)+1)] {
			hist = append(hist, act(actions.OpInstallPackage, "name", pkg))
		}
		for _, j := range rng.Perm(len(extras))[:rng.Intn(3)] {
			hist = append(hist, act(actions.OpInstallPackage, "name", extras[j]))
		}
		hw := core.HardwareSpec{Arch: "x86", MemoryMB: 64, DiskMB: diskMB}
		im, err := warehouse.BuildGolden(fmt.Sprintf("seed-%s-%02d", backend, i), hw, backend, hist)
		if err != nil {
			return err
		}
		if err := wh.Publish(im); err != nil {
			return err
		}
	}
	return nil
}
