package service

import (
	"encoding/json"
	"log"
	"net/http"
	"slices"
	"strings"

	"vmplants/internal/cluster"
	"vmplants/internal/journal"
	"vmplants/internal/plant"
	"vmplants/internal/sim"
	"vmplants/internal/telemetry"
	"vmplants/internal/warehouse"
)

// Daemon is what every VMPlants daemon process stands on: a telemetry
// hub, the simulation kernel reporting to it, and the Runner that
// serializes network requests onto that kernel.
type Daemon struct {
	Hub    *telemetry.Hub
	Kernel *sim.Kernel
	Runner *Runner
}

// NewDaemon wires the three together for one named instance. Span IDs
// are minted from the instance's own range, so IDs never collide when
// vmctl merges /debug/creation payloads across processes; the runner
// lends the hub its virtual clock; and slos, when given, become the
// hub's standing objectives.
func NewDaemon(instance string, slos ...telemetry.Objective) *Daemon {
	hub := telemetry.New()
	hub.T().SetIDBase(telemetry.IDBaseForInstance(instance))
	k := sim.NewKernel()
	k.SetTelemetry(hub)
	runner := NewRunner(k)
	hub.VClock = runner
	if len(slos) > 0 {
		hub.SLO = telemetry.NewSLOEngine(hub.M(), slos...)
	}
	return &Daemon{Hub: hub, Kernel: k, Runner: runner}
}

// HostPlant builds the substrate a plant daemon hosts on the daemon's
// kernel — a one-node testbed and its warehouse with the golden images
// published — and the plant on top (reach them through the plant's
// Node and Warehouse), all reporting to the daemon's hub.
func (d *Daemon) HostPlant(name string, seed int64, cfg plant.Config, golden ...*warehouse.Image) (*plant.Plant, error) {
	tb := cluster.NewTestbed(d.Kernel, 1, cluster.DefaultParams(), seed)
	wh := warehouse.New(tb.Warehouse)
	wh.SetTelemetry(d.Hub)
	for _, im := range golden {
		if err := wh.Publish(im); err != nil {
			return nil, err
		}
	}
	cfg.Telemetry = d.Hub
	return plant.New(name, tb.Nodes[0], wh, cfg), nil
}

// ServeDebug serves the daemon's debug HTTP endpoints on addr and
// returns the bound address: the hub's own (/metrics, /debug/traces,
// /debug/creation/<id>, /debug/health), every snapshot as JSON under
// /debug/<its name>, and the journal's and the warehouse's when the
// daemon has one. It logs what it mounted.
func (d *Daemon) ServeDebug(addr string, snapshots map[string]func() any, jnl *journal.Journal, wh *warehouse.Warehouse) (string, error) {
	handlers := map[string]http.Handler{}
	for name, snapshot := range snapshots {
		handlers["/debug/"+name] = http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(snapshot())
		})
	}
	if jnl != nil {
		handlers["/debug/journal"] = jnl.DebugHandler()
	}
	if wh != nil {
		handlers["/debug/warehouse"] = wh.DebugHandler()
	}
	mux := d.Hub.DebugMux()
	var paths []string
	for path, h := range handlers {
		mux.Handle(path, h)
		paths = append(paths, path)
	}
	slices.Sort(paths)
	mounted := append([]string{"/metrics", "/debug/traces", "/debug/creation/<id>", "/debug/health"}, paths...)
	bound, err := telemetry.Serve(addr, mux)
	if err != nil {
		return "", err
	}
	log.Printf("debug endpoints on http://%s%s", bound, strings.Join(mounted, ", "))
	return bound, nil
}
