package workload

import (
	"fmt"
	"time"

	"vmplants/internal/cluster"
	"vmplants/internal/core"
	"vmplants/internal/cost"
	"vmplants/internal/dag"
	"vmplants/internal/fault"
	"vmplants/internal/journal"
	"vmplants/internal/plant"
	"vmplants/internal/shop"
	"vmplants/internal/sim"
	"vmplants/internal/storage"
	"vmplants/internal/telemetry"
	"vmplants/internal/vdisk"
	"vmplants/internal/warehouse"
)

// Options configures a simulated deployment.
type Options struct {
	// Plants is the number of cluster nodes, one VMPlant each
	// (paper §4.2: 8).
	Plants int
	// Seed drives all randomness.
	Seed int64
	// GoldenSizesMB selects the golden machines to publish, one In-VIGO
	// workspace image per memory size (paper: 32, 64, 256).
	GoldenSizesMB []int
	// GoldenDiskMB is each golden disk's capacity (paper: 2 GB).
	GoldenDiskMB int
	// Backend selects the golden images' production line.
	Backend string
	// PublishBlank additionally publishes a blank (no-OS) image per
	// size, the fallback source for the no-partial-matching ablation.
	PublishBlank bool
	// CostModelName picks the bidding model; the prototype used
	// "free-memory" (§4.1), the §3.4 walk-through "network+compute".
	CostModelName string
	// PlantConfig is applied to every plant (cost model is overridden
	// by CostModelName when set).
	PlantConfig plant.Config
	// Telemetry receives spans and metrics from the whole deployment
	// (kernel, warehouse, every plant, shop); nil disables.
	Telemetry *telemetry.Hub
	// Kernel, when set, makes the deployment join an existing simulation
	// kernel instead of creating its own — how a federation experiment
	// runs several cells in one virtual timeline. Each deployment still
	// gets its own testbed (and so its own NFS server: cells shard
	// storage bandwidth the way separate sites do).
	Kernel *sim.Kernel
	// CellName names the shop (default "shop"). In a federation every
	// cell needs a distinct shop name; plant names are qualified with it
	// too, since every testbed repeats node00, node01, ….
	CellName string
	// StandbyPlants holds the last N plants out of the shop's initial
	// rotation: built and ready, but not bidding. They are the fleet
	// controller's provisioning pool — scale-up hands them to the shop
	// one at a time. Must be less than Plants.
	StandbyPlants int
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.Plants == 0 {
		o.Plants = 8
	}
	if len(o.GoldenSizesMB) == 0 {
		o.GoldenSizesMB = []int{32, 64, 256}
	}
	if o.GoldenDiskMB == 0 {
		o.GoldenDiskMB = 2048
	}
	if o.Backend == "" {
		o.Backend = warehouse.BackendVMware
	}
	if o.CostModelName == "" {
		o.CostModelName = "free-memory"
	}
	if o.CellName == "" {
		o.CellName = "shop"
	}
	return o
}

// Deployment is a fully wired simulated site.
type Deployment struct {
	Opts      Options
	Kernel    *sim.Kernel
	Testbed   *cluster.Testbed
	Warehouse *warehouse.Warehouse
	Plants    []*plant.Plant
	Handles   []*shop.LocalHandle
	Shop      *shop.Shop
}

// GoldenName returns the published image name for a memory size.
func GoldenName(memMB int, backend string) string {
	return fmt.Sprintf("invigo-%s-%dmb", backend, memMB)
}

// GoldenImage builds the In-VIGO workspace golden machine of one memory
// size: the image every site and plant daemon seeds its warehouse with.
func GoldenImage(memMB, diskMB int, backend string) (*warehouse.Image, error) {
	hw := core.HardwareSpec{Arch: "x86", MemoryMB: memMB, DiskMB: diskMB}
	return warehouse.BuildGolden(GoldenName(memMB, backend), hw, backend, InVigoGoldenHistory())
}

// NewDeployment builds the simulated site: testbed, warehouse with the
// golden workspace images, one plant per node, and a shop in front.
func NewDeployment(opts Options) (*Deployment, error) {
	opts = opts.withDefaults()
	k := opts.Kernel
	if k == nil {
		k = sim.NewKernel()
		k.SetTelemetry(opts.Telemetry)
	}
	tb := cluster.NewTestbed(k, opts.Plants, cluster.DefaultParams(), opts.Seed)
	wh := warehouse.New(tb.Warehouse)
	wh.SetTelemetry(opts.Telemetry)
	for _, mem := range opts.GoldenSizesMB {
		im, err := GoldenImage(mem, opts.GoldenDiskMB, opts.Backend)
		if err != nil {
			return nil, err
		}
		if err := wh.Publish(im); err != nil {
			return nil, err
		}
		if opts.PublishBlank {
			hw := core.HardwareSpec{Arch: "x86", MemoryMB: mem, DiskMB: opts.GoldenDiskMB}
			blank, err := warehouse.BuildGolden(fmt.Sprintf("blank-%s-%dmb", opts.Backend, mem), hw, opts.Backend, nil)
			if err != nil {
				return nil, err
			}
			if err := wh.Publish(blank); err != nil {
				return nil, err
			}
		}
	}
	model, err := cost.ByName(opts.CostModelName)
	if err != nil {
		return nil, err
	}
	d := &Deployment{Opts: opts, Kernel: k, Testbed: tb, Warehouse: wh}
	var phs []shop.PlantHandle
	for _, node := range tb.Nodes {
		cfg := opts.PlantConfig
		cfg.CostModel = model
		cfg.Telemetry = opts.Telemetry
		pname := node.Name()
		if opts.CellName != "shop" {
			pname = opts.CellName + "/" + pname
		}
		pl := plant.New(pname, node, wh, cfg)
		h := shop.NewLocalHandle(pl)
		d.Plants = append(d.Plants, pl)
		d.Handles = append(d.Handles, h)
		phs = append(phs, h)
	}
	active := phs
	if opts.StandbyPlants > 0 && opts.StandbyPlants < len(phs) {
		active = phs[:len(phs)-opts.StandbyPlants]
	}
	d.Shop = shop.New(opts.CellName, active, opts.Seed+1)
	d.Shop.SetTelemetry(opts.Telemetry)
	return d, nil
}

// newFaultedSite is NewDeployment plus the site's one fault registry,
// seeded seed+faultSeed and consulted by every injection point: plants,
// shop→plant transports, the shop and the warehouse. Which component a
// fault hits is decided by the deterministic order injection points
// consult the shared stream; a component no rule names draws nothing.
func newFaultedSite(faultSeed int64, opts Options) (*Deployment, *fault.Registry, error) {
	reg := fault.NewRegistry(opts.Seed + faultSeed)
	reg.SetTelemetry(opts.Telemetry)
	opts.PlantConfig.Faults = reg
	d, err := NewDeployment(opts)
	if err != nil {
		return nil, nil, err
	}
	d.Shop.Faults = reg
	d.Warehouse.SetFaults(reg)
	for _, h := range d.Handles {
		h.Faults = reg
	}
	return d, reg, nil
}

// The daemons' preset: the one configuration vmplantd and vmshopd run,
// and so what the benchmark's tcp workload ("vmshopd + 4 vmplantd")
// measures. bench/tcp.go writes the same values out by hand: it is this
// preset's frozen twin until the benchmark module reads them from here.

// DaemonAdmission is a shop daemon's front door: sixteen creations in
// flight keep the plants' clone slots fed, and the queue bound is far
// above any batch a client submits.
var DaemonAdmission = shop.AdmissionConfig{MaxInflight: 16, MaxQueue: 1024}

// DaemonPlant is a plant daemon's configuration (32 VMs, four host-only
// networks, §4.1's free-memory bid, lazy cloning) and the golden
// workspace images it publishes at start-up: 32, 64 and 256 MB of
// memory on 2 048 MB disks.
func DaemonPlant() (plant.Config, []*warehouse.Image, error) {
	var golden []*warehouse.Image
	for _, mem := range []int{32, 64, 256} {
		im, err := GoldenImage(mem, 2048, warehouse.BackendVMware)
		if err != nil {
			return plant.Config{}, nil, err
		}
		golden = append(golden, im)
	}
	cfg := plant.Config{MaxVMs: 32, HostOnlyNetworks: 4, CostModel: cost.FreeMemory{}, CloneMode: vdisk.CloneByLazy}
	return cfg, golden, nil
}

// OpenShopLog opens a shop's write-ahead journal on a dedicated volume
// named after the shop, apart from any image storage, the way a real
// deployment separates WAL and data devices.
func OpenShopLog(name string, hub *telemetry.Hub) *journal.Journal {
	vol := storage.NewVolume(name+"-log", storage.NewDevice(name+"-log-disk", 64<<20, 100*time.Microsecond))
	jnl := journal.Open(vol, "journal/"+name)
	jnl.SetTelemetry(hub)
	return jnl
}

// JournalShop makes the site's control plane durable: the shop journals
// creation intents/commits, routes and drains to its own log volume.
func (d *Deployment) JournalShop() *journal.Journal {
	jnl := OpenShopLog(d.Opts.CellName, d.Opts.Telemetry)
	d.Shop.SetJournal(jnl)
	return jnl
}

// creationRecord is one client-observed creation.
type creationRecord struct {
	Seq        int // 1-based request sequence number
	MemoryMB   int
	CreateSecs float64 // client request → shop response (Figure 4)
	CloneSecs  float64 // PPP clone latency from the classad (Figures 5, 6)
	MatchedOps int     // golden-image actions the match saved the creation
	Plant      string
	VMID       core.VMID
	OK         bool
	Err        string
}

// WorkspaceSpec builds the creation request for one workspace instance.
func (d *Deployment) WorkspaceSpec(seq, memMB int) (*core.Spec, error) {
	return d.workspaceSpec(seq, memMB, InVigoDAG)
}

// userEnvSpec is WorkspaceSpec with the user-environment DAG: the
// Figure 3 personalization plus the user's application stack
// (InVigoUserEnvDAG), so residual configuration dominates a cold
// creation and a derived checkpoint has something substantial to save.
func (d *Deployment) userEnvSpec(seq, memMB int) (*core.Spec, error) {
	return d.workspaceSpec(seq, memMB, InVigoUserEnvDAG)
}

func (d *Deployment) workspaceSpec(seq, memMB int, userDAG func(user, mac, ip string) (*dag.Graph, error)) (*core.Spec, error) {
	user := fmt.Sprintf("user%04d", seq)
	mac := fmt.Sprintf("00:50:56:%02x:%02x:%02x", (seq>>16)&0xff, (seq>>8)&0xff, seq&0xff)
	ip := fmt.Sprintf("10.1.%d.%d", (seq/250)%250, seq%250+1)
	g, err := userDAG(user, mac, ip)
	if err != nil {
		return nil, err
	}
	return &core.Spec{
		Name:     "workspace-" + user,
		Hardware: core.HardwareSpec{Arch: "x86", MemoryMB: memMB, DiskMB: d.Opts.GoldenDiskMB},
		Domain:   "ufl.edu",
		Backend:  d.Opts.Backend,
		Graph:    g,
	}, nil
}

// runCreationSeries issues n sequential workspace creations of the
// given memory size through the shop — the paper's §4.2 experiment
// shape ("a series of requests, in sequence, for virtual machine
// creation through VMShop") — and returns one record per request.
func (d *Deployment) runCreationSeries(n, memMB int) ([]creationRecord, error) {
	return d.runSeries(n, memMB, d.WorkspaceSpec)
}

// runSeries is runCreationSeries over any per-request spec builder.
func (d *Deployment) runSeries(n, memMB int, specFor func(seq, memMB int) (*core.Spec, error)) ([]creationRecord, error) {
	records := make([]creationRecord, 0, n)
	err := d.Run(func(p *sim.Proc) error {
		for i := 1; i <= n; i++ {
			spec, err := specFor(i, memMB)
			if err != nil {
				return err
			}
			start := p.Now()
			id, ad, err := d.Shop.Create(p, spec)
			rec := creationRecord{
				Seq:        i,
				MemoryMB:   memMB,
				CreateSecs: (p.Now() - start).Seconds(),
			}
			if err != nil {
				rec.Err = err.Error()
			} else {
				rec.OK = true
				rec.VMID = id
				rec.Plant = ad.GetString(core.AttrPlant, "")
				rec.CloneSecs = ad.GetReal(core.AttrCloneSecs, 0)
				rec.MatchedOps = int(ad.GetInt(core.AttrMatchedOps, 0))
			}
			records = append(records, rec)
		}
		return nil
	})
	return records, err
}

// runHorizon bounds a run's virtual time from its start. The longest
// scenario, the diurnal paper week, ends well inside it (196 h at most
// over seeds 1–100), so a run still live past it is stuck — a drain
// waiting on a VM no client collects, a loop retrying forever — not
// slow.
const runHorizon = 14 * 24 * time.Hour

// Run executes a client body inside the deployment's kernel to
// completion, returning the body's error. A run whose kernel still has
// work at runHorizon fails, naming the processes left live.
func (d *Deployment) Run(body func(p *sim.Proc) error) error {
	var err error
	d.Kernel.Spawn("client", func(p *sim.Proc) { err = body(p) })
	res := d.Kernel.Run(d.Kernel.Now() + runHorizon)
	if d.Kernel.QueueDepth() > 0 {
		return fmt.Errorf("run still live at its %v horizon: %v", runHorizon, d.Kernel.Live())
	}
	if len(res.Stranded) != 0 {
		return fmt.Errorf("sim: stranded processes: %v", res.Stranded)
	}
	return err
}

// succeeded counts successful records.
func succeeded(recs []creationRecord) int {
	return len(createTimes(recs))
}

// createTimes extracts CreateSecs of successful records.
func createTimes(recs []creationRecord) []float64 {
	return okValues(recs, func(r creationRecord) float64 { return r.CreateSecs })
}

// cloneTimes extracts CloneSecs of successful records.
func cloneTimes(recs []creationRecord) []float64 {
	return okValues(recs, func(r creationRecord) float64 { return r.CloneSecs })
}

func okValues(recs []creationRecord, value func(creationRecord) float64) []float64 {
	var out []float64
	for _, r := range recs {
		if r.OK {
			out = append(out, value(r))
		}
	}
	return out
}
