package main

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"vmplants/internal/journal"
	"vmplants/internal/plant"
	"vmplants/internal/proto"
	"vmplants/internal/service"
	"vmplants/internal/shop"
	"vmplants/internal/warehouse"
	"vmplants/internal/workload"
)

// serve runs a daemon's handler on a loopback port until the test ends.
func serve(t *testing.T, h proto.Handler) (addr string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		proto.Serve(l, h)
	}()
	t.Cleanup(func() {
		l.Close()
		<-done
	})
	return l.Addr().String()
}

// startSite brings up what vmplantd ×2 and vmshopd bring up — journals
// and debug endpoints included — in this process, on loopback ports. It
// returns the shop's address and every daemon's debug address, the
// shop's first.
func startSite(t *testing.T) (shopAddr string, debug []string) {
	t.Helper()
	var handles []shop.PlantHandle
	for i, name := range []string{"plantA", "plantB"} {
		im, err := workload.GoldenImage(64, 2048, warehouse.BackendVMware)
		if err != nil {
			t.Fatal(err)
		}
		d := service.NewDaemon(name)
		pl, err := d.HostPlant(name, int64(i+1), plant.Config{MaxVMs: 16}, im)
		if err != nil {
			t.Fatal(err)
		}
		jnl := journal.Open(pl.Node().LocalDisk(), "journal/"+name)
		pl.SetJournal(jnl)
		pl.Warehouse().SetJournal(jnl)
		dbg, err := d.ServeDebug("127.0.0.1:0", nil, jnl, pl.Warehouse())
		if err != nil {
			t.Fatal(err)
		}
		debug = append(debug, dbg)
		rp := &service.RemotePlant{PlantName: name, Addr: serve(t, service.NewPlantHandler(d.Runner, pl)), Timeout: 5 * time.Second}
		t.Cleanup(rp.Close)
		handles = append(handles, rp)
	}
	d := service.NewDaemon("shop")
	s := shop.New("shop", handles, 7)
	s.SetTelemetry(d.Hub)
	jnl := workload.OpenShopLog("shop", d.Hub)
	s.SetJournal(jnl)
	dbg, err := d.ServeDebug("127.0.0.1:0", map[string]func() any{
		"federation": func() any { return s.Federation() },
	}, jnl, nil)
	if err != nil {
		t.Fatal(err)
	}
	return serve(t, service.NewShopHandler(d.Runner, s)), append([]string{dbg}, debug...)
}

// TestEverySubcommand drives vmctl's subcommands, in the order an
// operator would, against a live site, checking each one's exit code and
// the line its output is read for.
func TestEverySubcommand(t *testing.T) {
	shopAddr, debug := startSite(t)
	all, shopDebug, plantDebug := strings.Join(debug, ","), debug[0], strings.Join(debug[1:], ",")
	spec := filepath.Join(t.TempDir(), "request.xml")

	for _, tc := range []struct {
		args []string
		code int
		out  string // a line (or part of one) standard output must hold
		err  string // the same for the error stream
	}{
		{args: []string{"create", "-example"}, out: "<name>workspace-alice</name>"},
		{args: []string{"create", "-spec", spec}, out: "created vm-shop-1"},
		{args: []string{"query", "vm-shop-1"}, out: `Name = "workspace-alice"`},
		{args: []string{"suspend", "vm-shop-1"}, out: "vm-shop-1 is now suspended"},
		{args: []string{"resume", "vm-shop-1"}, out: "vm-shop-1 is now running"},
		{args: []string{"publish", "vm-shop-1", "alice-image"}, out: `published vm-shop-1 as image "alice-image"`},
		{args: []string{"destroy", "vm-shop-1"}, out: "destroyed vm-shop-1"},
		{args: []string{"ping"}, out: "shop is alive"},
		{args: []string{"federation", "-debug", shopDebug}, out: `cell "shop", peers`},
		{args: []string{"journal", "-verify", "-debug", all}, out: "/ 0 bad"},
		{args: []string{"journal", "-n", "3", "-debug", shopDebug}, out: "route-drop"},
		{args: []string{"warehouse", "-debug", plantDebug}, out: "warehouse.images"},
		{args: []string{"queue", "-debug", all}, out: "shop.admission_wait_secs"},
		{args: []string{"scrub", "-debug", plantDebug}, out: "quarantine: empty"},
		{args: []string{"stats", "-debug", shopDebug, "-traces", "2"}, out: "shop.creations"},
		{args: []string{"trace", "vm-shop-1", "-debug", all}, out: "spans from 3 daemon(s)"},
		// The plant's clone span hangs two levels under the shop's root:
		// the cross-daemon join, not a span degraded to a root.
		{args: []string{"trace", "vm-shop-1", "-debug", all}, out: "s      clone ("},
		{args: []string{"dot", "-spec", spec}, out: "digraph"},

		{args: []string{"query", "vm-shop-1"}, code: 1, err: "vmctl: service: VM vm-shop-1 not found"},
		{args: []string{"trace", "vm-none", "-debug", all}, code: 1, err: "no trace for vm-none on 3 daemon(s)"},
		{args: []string{"federation", "-debug", plantDebug}, out: "no federation state"},
		{args: []string{"query"}, code: 2, err: "usage: vmctl"},
		{args: []string{"defenestrate"}, code: 2, err: "usage: vmctl"},
		{args: []string{"fleet", "-debug", shopDebug}, code: 2, err: "usage: vmctl"},
		{args: []string{"journal", "-bogus"}, code: 2, err: "flag provided but not defined"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(append([]string{"-shop", shopAddr, "-timeout", "10s"}, tc.args...), &stdout, &stderr)
		if code != tc.code || !strings.Contains(stdout.String(), tc.out) || !strings.Contains(stderr.String(), tc.err) {
			t.Errorf("vmctl %s: exit %d, want %d with %q on stdout and %q on stderr\nstdout:\n%s\nstderr:\n%s",
				strings.Join(tc.args, " "), code, tc.code, tc.out, tc.err, &stdout, &stderr)
		}
		if slices.Contains(tc.args, "-example") {
			if err := os.WriteFile(spec, stdout.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// Every instrument a /metrics view prints is registered by a daemon on
// the view's default -debug list: the rig's shop and first plant stand in
// for vmshopd's and vmplantd's default addresses.
func TestViewsPrintRegisteredMetrics(t *testing.T) {
	_, debug := startSite(t)
	live := map[string]string{shopDebug: debug[0], plantDebug: debug[1]}
	for name, v := range views {
		if !slices.ContainsFunc(commands, func(cmd command) bool { return cmd.name == name }) {
			t.Errorf("view %q is not a subcommand", name)
		}
		registered := map[string]bool{}
		for _, def := range strings.Split(v.daemons, ",") {
			addr, ok := live[def]
			if !ok {
				t.Fatalf("vmctl %s asks %s by default, which is no daemon's default", name, def)
			}
			snap, err := fetch[map[string]any](addr, "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			for n := range snap {
				registered[n] = true
			}
		}
		for _, n := range append(v.names, v.hists...) {
			if !registered[n] {
				t.Errorf("vmctl %s prints %s, which no daemon on its default list (%s) registers", name, n, v.daemons)
			}
		}
	}
}
