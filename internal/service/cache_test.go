package service

import (
	"fmt"
	"testing"
	"time"

	"vmplants/internal/cluster"
	"vmplants/internal/plant"
	"vmplants/internal/proto"
	"vmplants/internal/sim"
	"vmplants/internal/vdisk"
)

// A plant daemon runs each request's process until its kernel has no
// work left, background work included. With lazy cloning its node pulls
// each golden extent once: four create-requests of one image carry the
// image's stored extents over the node's NFS mount once, and the
// daemon's clock advances over creates 2–4 by what those creations
// cost, below the one 2 GB hydration each of them used to wait out.
func TestLazyDaemonPullsEachExtentOnce(t *testing.T) {
	d, pl := newTestPlantCfg(t, "plantA", 1, plant.Config{MaxVMs: 8, CloneMode: vdisk.CloneByLazy})
	handle := NewPlantHandler(d.Runner, pl)
	var afterFirst time.Duration
	for i := 1; i <= 4; i++ {
		req := createReq(t)
		req.VMID = fmt.Sprintf("vm-%d", i)
		resp := handle(&proto.Message{Kind: proto.KindCreateRequest, Seq: uint64(i), Create: req})
		if resp.Kind != proto.KindCreateResponse {
			t.Fatalf("create %d: %s %+v", i, resp.Kind, resp.Err)
		}
		if i == 1 {
			afterFirst = d.Runner.Now()
		}
	}
	hydration := sim.Seconds(float64(2048<<20) / cluster.DefaultParams().NFSClientBps)
	took := d.Runner.Now() - afterFirst
	t.Logf("creates 2–4 advanced the daemon's clock %v", took)
	if took >= hydration {
		t.Errorf("creates 2–4 advanced the daemon's clock %v; one 2 GB hydration takes %v", took, hydration)
	}
	store := pl.Warehouse().ExtentStatsNow()
	if _, background, _ := pl.Node().Warehouse().Device().Stats(); background != store.PhysicalBytes {
		t.Errorf("the node's mount carried %d background bytes; the %d distinct extents are %d",
			background, store.Entries, store.PhysicalBytes)
	}
}
