// Command vmshopd runs the VMShop daemon: the client-facing front end
// that collects bids from the configured VMPlant daemons and routes
// create/query/destroy requests. It runs the daemons' preset: creations
// pass workload.DaemonAdmission's gate, classads are cached to answer
// queries while a plant is down, and creation intents, commits and
// route changes are journaled for crash-restart recovery.
//
// Usage:
//
//	vmshopd -listen :7000 -plants plantA=host1:7001,plantB=host2:7001
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"strings"
	"time"

	"vmplants/internal/proto"
	"vmplants/internal/service"
	"vmplants/internal/shop"
	"vmplants/internal/workload"
)

func main() {
	var (
		listen  = flag.String("listen", ":7000", "shop service listen address")
		plants  = flag.String("plants", "", "comma-separated name=addr plant endpoints")
		cell    = flag.String("cell", "shop", "federation cell name (the shop's identity)")
		peers   = flag.String("peers", "", "comma-separated name=addr peer shop endpoints for hierarchical bidding")
		seed    = flag.Int64("seed", 1, "tie-break random seed")
		timeout = flag.Duration("timeout", 30*time.Second, "per-plant call timeout")
		debug   = flag.String("debug", ":7070", "debug HTTP listen address for /metrics and /debug/traces (empty = disabled)")
	)
	flag.Parse()

	d := service.NewDaemon(*cell, workload.DefaultSLOObjectives()...)
	hub, runner := d.Hub, d.Runner
	var handles []shop.PlantHandle
	for _, e := range endpoints("plant", *plants) {
		name, addr := e[0], e[1]
		handles = append(handles, &service.RemotePlant{PlantName: name, Addr: addr, Timeout: *timeout, Telemetry: hub})
	}
	if len(handles) == 0 {
		log.Fatal("vmshopd: no plants configured (-plants name=addr,...)")
	}

	s := shop.New(*cell, handles, *seed)
	s.CacheAds = true
	s.SetTelemetry(hub)
	s.SetAdmission(workload.DaemonAdmission)
	var peerHandles []shop.PeerHandle
	for _, e := range endpoints("peer", *peers) {
		name, addr := e[0], e[1]
		if name == *cell {
			log.Fatalf("vmshopd: peer %q is this cell", name)
		}
		peerHandles = append(peerHandles, service.NewRemotePeer(name, addr, *timeout, hub))
	}
	s.SetPeers(peerHandles)

	jnl := workload.OpenShopLog(*cell, hub)
	s.SetJournal(jnl)
	log.Printf("journaling control-plane events to %s", jnl.Dir())

	if *debug != "" {
		if _, err := d.ServeDebug(*debug, map[string]func() any{
			"federation": func() any { return s.Federation() },
		}, jnl, nil); err != nil {
			log.Fatalf("vmshopd: %v", err)
		}
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("vmshopd: listen: %v", err)
	}
	fmt.Printf("vmshopd cell %q serving on %s with %d plants, %d peers\n", *cell, l.Addr(), len(handles), len(peerHandles))
	proto.Serve(l, service.NewShopHandler(runner, s))
}

// endpoints parses a comma-separated name=addr list, in order.
func endpoints(kind, list string) (pairs [][2]string) {
	for _, pair := range strings.Split(list, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		name, addr, ok := strings.Cut(pair, "=")
		if !ok {
			log.Fatalf("vmshopd: bad %s %q (want name=addr)", kind, pair)
		}
		pairs = append(pairs, [2]string{name, addr})
	}
	return pairs
}
