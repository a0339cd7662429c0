// Multi-domain networking (§3.3): two client domains obtain VMs on the
// same plant; the plant keeps them on separate host-only networks, and
// each domain bridges its own network back to its LAN through a
// VNET-style TCP tunnel. An Ethernet-level probe from each client LAN
// reaches only that domain's VM.
//
// This example drives the subsystem layer directly (plant, vnet,
// simnet) to show the data path; the other examples use the public
// facade.
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"vmplants/internal/actions"
	"vmplants/internal/cluster"
	"vmplants/internal/core"
	"vmplants/internal/dag"
	"vmplants/internal/plant"
	"vmplants/internal/sim"
	"vmplants/internal/simnet"
	"vmplants/internal/vnet"
	"vmplants/internal/warehouse"
)

func main() {
	k := sim.NewKernel()
	tb := cluster.NewTestbed(k, 1, cluster.DefaultParams(), 5)
	wh := warehouse.New(tb.Warehouse)
	hw := core.HardwareSpec{Arch: "x86", MemoryMB: 64, DiskMB: 2048}
	im, err := warehouse.BuildGolden("base", hw, warehouse.BackendVMware, []dag.Action{
		{Op: actions.OpInstallOS, Target: dag.Guest, Params: map[string]string{"distro": "redhat-8.0"}},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := wh.Publish(im); err != nil {
		log.Fatal(err)
	}
	pl := plant.New("plant0", tb.Nodes[0], wh, plant.Config{HostOnlyNetworks: 4})

	// Create one VM per domain, directly on the plant.
	domains := []string{"ufl.edu", "northwestern.edu"}
	vmIDs := map[string]core.VMID{}
	err = k.Do("client", func(p *sim.Proc) {
		for i, domain := range domains {
			g, err := dag.NewBuilder().
				Add("os", dag.Action{Op: actions.OpInstallOS, Target: dag.Guest,
					Params: map[string]string{"distro": "redhat-8.0"}}).
				Add("net", dag.Action{Op: actions.OpConfigureNetwork, Target: dag.Guest,
					Params: map[string]string{"ip": fmt.Sprintf("10.%d.0.2", i+1)}}, "os").
				Build()
			if err != nil {
				p.Failf("%v", err)
			}
			id := core.VMID(fmt.Sprintf("vm-x-%d", i+1))
			ad, err := pl.Create(p, id, &core.Spec{
				Name: "backend-" + domain, Hardware: hw, Domain: domain, Graph: g,
			})
			if err != nil {
				p.Failf("%v", err)
			}
			vmIDs[domain] = id
			fmt.Printf("%-18s → %s on host-only network %s\n",
				domain, id, ad.GetString(core.AttrNetwork, "?"))
		}
	})
	if err != nil {
		log.Fatal(err)
	}

	// Plant-side VNET server with per-domain credentials.
	creds := vnet.Credentials{"ufl.edu": "gator", "northwestern.edu": "wildcat"}
	srv := vnet.NewServer(creds, pl.Networks().Switch)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer l.Close()
	go srv.Serve(l)
	defer srv.Close()
	fmt.Printf("\nVNET server listening on %s\n", l.Addr())

	// Each domain's proxy bridges its LAN to the plant over TCP, then
	// probes its VM at the Ethernet layer.
	for _, domain := range domains {
		lan := simnet.NewSwitch(domain + "-lan")
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			log.Fatal(err)
		}
		bridge, err := vnet.Dial(lan, domain, creds[domain], conn)
		if err != nil {
			log.Fatalf("%s: %v", domain, err)
		}
		vm, _ := pl.VM(vmIDs[domain])
		ws := lan.Attach("workstation")
		ws.Send(simnet.Frame{
			Src:       simnet.MAC{0x02, 0, 0, 0, 0, 0x42},
			Dst:       vm.MAC(),
			EtherType: simnet.EtherTypeTest,
			Payload:   []byte("hello from " + domain),
		})
		reply := awaitFrame(ws)
		fmt.Printf("%-18s probe across the tunnel: %q\n", domain, reply)
		bridge.Close()
	}

	// Cross-domain isolation: a wrong credential is refused.
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	if _, err := vnet.Dial(simnet.NewSwitch("evil-lan"), "ufl.edu", "wrong", conn); err != nil {
		fmt.Printf("\nwrong credential rejected: %v\n", err)
	}
}

// awaitFrame polls the port for the tunneled reply (the answer crosses
// a real TCP connection, so give it wall-clock time).
func awaitFrame(p *simnet.Port) string {
	for i := 0; i < 2000; i++ {
		if f, ok := p.Poll(); ok {
			return string(f.Payload)
		}
		time.Sleep(time.Millisecond)
	}
	return "(no reply)"
}
