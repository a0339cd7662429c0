package service

import (
	"net"
	"sync"
	"testing"
	"time"

	"vmplants/internal/classad"
	"vmplants/internal/core"
	"vmplants/internal/proto"
	"vmplants/internal/shop"
	"vmplants/internal/sim"
)

// TestServedAdsReadOffTheKernel: the classads the daemons hand out are
// snapshots read outside the runner's lock — by the serve layer, which
// encodes each reply after the kernel is released, and here by readers
// holding a plant's resource ad, a VM's queried ad and the shop's cached
// one — while clients go on changing what those ads describe over
// loopback. Under -race, an edit of an ad already handed out, or a memo
// read off the kernel, is a reported race.
func TestServedAdsReadOffTheKernel(t *testing.T) {
	pd, pl := newTestPlant(t, "plantA", 1)
	pAddr := listenAndServe(t, NewPlantHandler(pd.Runner, pl))
	sd := NewDaemon("shop")
	rp := &RemotePlant{PlantName: "plantA", Addr: pAddr, Timeout: 10 * time.Second}
	defer rp.Close()
	s := shop.New("shop", []shop.PlantHandle{rp}, 7)
	s.CacheAds = true
	sAddr := listenAndServe(t, NewShopHandler(sd.Runner, s))

	var clients [2]*ShopClient
	for i := range clients {
		c, err := DialShop(sAddr, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}
	id, _, err := clients[0].Create(testSpec(t))
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 20
	var wg sync.WaitGroup
	defer wg.Wait()
	// Writers: one client suspends, resumes and queries the VM while the
	// other creates and destroys VMs beside it, changing the plant's
	// resource ad.
	wg.Add(2)
	go func() {
		defer wg.Done()
		for range rounds {
			for _, op := range []func(core.VMID) error{clients[0].Suspend, clients[0].Resume} {
				if err := op(id); err != nil {
					t.Error(err)
					return
				}
				if _, err := clients[0].Query(id); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		for range rounds {
			other, _, err := clients[1].Create(testSpec(t))
			if err != nil {
				t.Error(err)
				return
			}
			if err := clients[1].Destroy(other); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Readers: take ads on the kernel, read them off it.
	read := func(ads ...*classad.Ad) {
		for _, ad := range ads {
			if ad == nil {
				t.Error("no ad served")
				continue
			}
			ad.AppendXML(nil)
			ad.GetInt("FreeMemoryMB", 0)
			ad.GetString(core.AttrState, "")
		}
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for range 2 * rounds {
			var res, queried *classad.Ad
			err := pd.Runner.Do("reader", func(p *sim.Proc) {
				res = pl.ResourceAd()
				queried, _ = pl.Query(p, id)
			})
			if err != nil {
				t.Error(err)
				return
			}
			read(res, queried)
		}
	}()
	go func() {
		defer wg.Done()
		for range 2 * rounds {
			var cached *classad.Ad
			err := sd.Runner.Do("reader", func(p *sim.Proc) { cached, _ = s.Query(p, id) })
			if err != nil {
				t.Error(err)
				return
			}
			read(cached)
		}
	}()
}

// listenAndServe serves h on a loopback port until the test ends.
func listenAndServe(t *testing.T, h proto.Handler) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serve(t, l, h)
	return l.Addr().String()
}
