package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"vmplants/internal/actions"
	"vmplants/internal/classad"
	"vmplants/internal/core"
	"vmplants/internal/dag"
	"vmplants/internal/journal"
	"vmplants/internal/match"
	"vmplants/internal/proto"
	"vmplants/internal/sim"
	"vmplants/internal/storage"
	"vmplants/internal/warehouse"
)

// microInputs is what a traced epoch captured for the micro-drivers:
// the layers below are timed on the inputs the workload really gave
// them, not on synthetic ones.
type microInputs struct {
	spec      *core.Spec           // the last request served
	wh        *warehouse.Warehouse // a warehouse it was matched against
	plantAd   *classad.Ad          // a plant's resource ad, as bid
	createMsg *proto.Message       // the request on the wire (built from spec in process)
	shopJnl   *journal.Journal     // the shop's log at the end of the epoch
}

// timeOp runs fn n times, three rounds, and reports the fastest round's
// wall µs per call and the allocations per call.
func timeOp(n int, fn func()) (us, allocs float64) {
	best := time.Duration(1 << 62)
	var ms0, ms1 runtime.MemStats
	for round := 0; round < 3; round++ {
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		best = min(best, time.Since(t0))
		runtime.ReadMemStats(&ms1)
	}
	return float64(best.Nanoseconds()) / 1e3 / float64(n), float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
}

// requestAd is the classad the shop matches against each bid.
func requestAd(spec *core.Spec) *classad.Ad {
	return classad.New().
		SetString("Name", spec.Name).
		SetString("Arch", spec.Hardware.Arch).
		SetInt("MemoryMB", int64(spec.Hardware.MemoryMB)).
		SetInt("DiskMB", int64(spec.Hardware.DiskMB)).
		SetString("Domain", spec.Domain).
		SetString("Backend", spec.Backend)
}

// runMicro times each layer below the shop on the captured inputs and
// returns per-layer metric values by name.
func runMicro(in microInputs) (map[string]float64, error) {
	out := make(map[string]float64)
	if in.spec == nil || in.wh == nil {
		return nil, fmt.Errorf("micro-drivers: the traced epochs captured no request")
	}

	cands := in.wh.Candidates(in.spec.Backend)
	out["match.candidates_per_call"] = float64(len(cands))
	out["match.best_us"], out["match.best_allocs"] = timeOp(200, func() {
		match.Best(in.spec.Hardware, in.spec.Graph, cands)
	})

	reqAd := requestAd(in.spec)
	out["classad.match_us"], out["classad.match_allocs"] = timeOp(2000, func() {
		classad.Match(reqAd, in.plantAd)
	})

	var xmlErr error
	out["dag.xml_roundtrip_us"], out["dag.xml_roundtrip_allocs"] = timeOp(200, func() {
		var buf bytes.Buffer
		if err := in.spec.Graph.Encode(&buf); err != nil {
			xmlErr = err
		}
		if _, err := dag.Decode(&buf); err != nil {
			xmlErr = err
		}
	})
	if xmlErr != nil {
		return nil, fmt.Errorf("dag round trip: %w", xmlErr)
	}

	blob, err := proto.Marshal(in.createMsg)
	if err != nil {
		return nil, err
	}
	var mAllocs, uAllocs float64
	out["proto.marshal_us"], mAllocs = timeOp(200, func() { _, xmlErr = proto.Marshal(in.createMsg) })
	out["proto.unmarshal_us"], uAllocs = timeOp(200, func() { _, xmlErr = proto.Unmarshal(blob) })
	out["proto.roundtrip_allocs"] = mAllocs + uAllocs
	if xmlErr != nil {
		return nil, fmt.Errorf("proto round trip: %w", xmlErr)
	}

	names := in.wh.List()
	i := 0
	out["warehouse.openclone_us"], _ = timeOp(2000, func() {
		_, _ = in.wh.OpenClone(names[i%len(names)]) // walks the catalog, so the LRU behaves as under the workload
		i++
	})
	if out["warehouse.publish_us"], err = publishMicro(in.wh, in.spec.Backend); err != nil {
		return nil, err
	}

	recs := in.shopJnl.Records()
	out["journal.appendsync_us"], out["journal.sync_virt_ms"] = appendSyncMicro(recs)
	t0 := time.Now()
	st, err := in.shopJnl.Replay(nil)
	if err != nil {
		return nil, err
	}
	out["journal.replay_us_per_record"] = ratio(float64(time.Since(t0).Nanoseconds())/1e3, float64(st.Records))

	out["sim.event_ns"] = simEventMicro()
	return out, nil
}

// publishMicro times one derived-image publication (build, publish,
// remove again) over the warehouse's first seed image.
func publishMicro(wh *warehouse.Warehouse, backend string) (float64, error) {
	var parent *warehouse.Image
	for _, name := range wh.List() {
		if im, ok := wh.Lookup(name); ok && !im.Derived && im.Backend == backend && len(im.Performed) > 0 {
			parent = im
			break
		}
	}
	if parent == nil {
		return 0, fmt.Errorf("publish micro-driver: no seed image")
	}
	tgt, _ := actions.DefaultTarget(actions.OpInstallPackage)
	hist := append(append([]dag.Action(nil), parent.Performed...),
		dag.Action{Op: actions.OpInstallPackage, Target: tgt, Params: map[string]string{"name": "bench-probe"}})
	var perr error
	us, _ := timeOp(50, func() {
		im, err := warehouse.BuildDerived("bench-probe", parent, hist)
		if err == nil {
			err = wh.PublishDerived(im, 0)
		}
		if err == nil {
			err = wh.Remove("bench-probe")
		}
		if err != nil {
			perr = err
		}
	})
	return us, perr
}

// appendSyncMicro replays the workload's own shop records into a fresh
// journal, one AppendSync each, inside a kernel: wall µs per record and
// the virtual ms one sync barrier costs.
func appendSyncMicro(recs []journal.Record) (us, syncVirtMS float64) {
	if len(recs) == 0 {
		return 0, 0
	}
	if len(recs) > 2000 {
		recs = recs[:2000]
	}
	k := sim.NewKernel()
	vol := storage.NewVolume("probe-log", storage.NewDevice("probe-log-disk", 64<<20, 100*time.Microsecond))
	j := journal.Open(vol, "journal/probe")
	var wall time.Duration
	k.Spawn("appender", func(p *sim.Proc) {
		t0 := time.Now()
		for _, r := range recs {
			j.AppendSync(p, journal.Record{Kind: r.Kind, Key: r.Key, Fields: r.Fields})
		}
		wall = time.Since(t0)
	})
	k.Run(0)
	n := float64(len(recs))
	return float64(wall.Nanoseconds()) / 1e3 / n, k.Now().Seconds() * 1e3 / n
}

// simEventMicro is the kernel's cost of one event: a process that only
// sleeps.
func simEventMicro() float64 {
	const events = 100000
	k := sim.NewKernel()
	k.Spawn("sleeper", func(p *sim.Proc) {
		for i := 0; i < events; i++ {
			p.Sleep(time.Millisecond)
		}
	})
	t0 := time.Now()
	k.Run(0)
	return float64(time.Since(t0).Nanoseconds()) / events
}
