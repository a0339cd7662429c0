// The full wire path in one process: two VMPlant daemons and a VMShop
// daemon listening on loopback TCP, a registry providing discovery, and
// the typed ShopClient driving create/suspend/resume/publish/destroy —
// exactly what `vmplantd`, `vmshopd` and `vmctl` do across machines.
package main

import (
	"fmt"
	"log"
	"net"
	"strings"
	"time"

	"vmplants/internal/core"
	"vmplants/internal/plant"
	"vmplants/internal/proto"
	"vmplants/internal/registry"
	"vmplants/internal/service"
	"vmplants/internal/shop"
	"vmplants/internal/warehouse"
	"vmplants/internal/workload"
)

// startPlant brings up one plant daemon on a loopback port.
func startPlant(name string, seed int64) (addr string, closer func(), err error) {
	im, err := workload.GoldenImage(64, 2048, warehouse.BackendVMware)
	if err != nil {
		return "", nil, err
	}
	d := service.NewDaemon(name)
	pl, err := d.HostPlant(name, seed, plant.Config{MaxVMs: 16}, im)
	if err != nil {
		return "", nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	go proto.Serve(l, service.NewPlantHandler(d.Runner, pl))
	return l.Addr().String(), func() { l.Close() }, nil
}

func main() {
	// Plants publish themselves in the registry (Figure 1's "Publish").
	reg := registry.New()
	for i, name := range []string{"plantA", "plantB"} {
		addr, closer, err := startPlant(name, int64(i+1))
		if err != nil {
			log.Fatal(err)
		}
		defer closer()
		if err := service.PublishPlant(reg, name, addr, time.Minute); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s serving on %s\n", name, addr)
	}

	// The shop discovers them ("Discover"/"Bind") and serves clients.
	handles := service.DiscoverPlants(reg, 5*time.Second)
	d := service.NewDaemon("shop")
	s := shop.New("shop", handles, 7)
	s.SetTelemetry(d.Hub)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer l.Close()
	go proto.Serve(l, service.NewShopHandler(d.Runner, s))
	fmt.Printf("vmshop serving on %s with %d discovered plants\n\n", l.Addr(), len(handles))

	// A typed client drives the whole lifecycle over real sockets.
	sc, err := service.DialShop(l.Addr().String(), 10*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	defer sc.Close()

	g, err := workload.InVigoDAG("grace", "00:50:56:00:00:77", "10.1.0.77")
	if err != nil {
		log.Fatal(err)
	}
	spec := &core.Spec{
		Name:     "workspace-grace",
		Hardware: core.HardwareSpec{Arch: "x86", MemoryMB: 64, DiskMB: 2048},
		Domain:   "ufl.edu",
		Graph:    g,
	}
	id, ad, err := sc.Create(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("created %s on %s (clone %.1f s of virtual time)\n",
		id, ad.GetString(core.AttrPlant, "?"), ad.GetReal(core.AttrCloneSecs, 0))

	if err := sc.Suspend(id); err != nil {
		log.Fatal(err)
	}
	fmt.Println("suspended (workspace parked, host memory freed)")
	if err := sc.Resume(id); err != nil {
		log.Fatal(err)
	}
	fmt.Println("resumed")

	if err := sc.Publish(id, "grace-workspace"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("published the configured workspace as a new golden image")

	if err := sc.Destroy(id); err != nil {
		log.Fatal(err)
	}
	fmt.Println("destroyed", id)

	// DAGs ship as XML on the wire; show a fragment.
	blob, _ := proto.Marshal(&proto.Message{Kind: proto.KindCreateRequest,
		Create: proto.FromSpec(spec, "")})
	fmt.Printf("\nwire format sample (%d bytes of XML); first node:\n", len(blob))
	fmt.Println(firstLineContaining(string(blob), "<node"))
}

func firstLineContaining(s, sub string) string {
	if i := strings.Index(s, sub); i >= 0 {
		end := strings.IndexByte(s[i:], '>')
		if end < 0 {
			return s[i:]
		}
		return s[i : i+end+1]
	}
	return ""
}
