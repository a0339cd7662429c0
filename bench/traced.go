package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"
)

// tracedRun is the --trace run: epochs in pairs, untraced then traced on
// the same seed, so the pair differs only by the tracing; then the
// micro-drivers on what the last traced epoch captured, then the price
// list.
type tracedRun struct {
	untraced []*epochResult
	traced   []*epochResult
	tr       *tracer
	micro    map[string]float64
	price    map[string]float64
}

// epochShare is the part of a traced run's time spent on epoch pairs;
// the rest is left for the micro-drivers and the price list.
const epochShare = 0.55

func runTraced(w *workloadDef, o runOptions) (*tracedRun, error) {
	t := &tracedRun{tr: newTracer()}
	began := time.Now()
	pairs := 2
	if o.epochs > 0 {
		pairs = o.epochs
	}
	var captured microInputs
	for e := 0; ; e++ {
		if e >= pairs && (o.epochs > 0 || time.Since(began).Seconds() >= epochShare*o.seconds) {
			break
		}
		seed := epochSeed(o.seed, e)
		plain, err := w.epoch(seed, nil)
		if err != nil {
			return nil, fmt.Errorf("%s epoch %d: %w", w.name, e, err)
		}
		runtime.GC()
		t.tr.epoch = e
		traced, err := w.epoch(seed, t.tr)
		if err != nil {
			return nil, fmt.Errorf("%s traced epoch %d: %w", w.name, e, err)
		}
		captured, traced.micro = traced.micro, microInputs{}
		t.untraced = append(t.untraced, plain)
		t.traced = append(t.traced, traced)
		runtime.GC()
	}
	var err error
	if t.micro, err = runMicro(captured); err != nil {
		return nil, err
	}
	if t.price, err = priceList(o.seed); err != nil {
		return nil, err
	}
	return t, nil
}

// perLayerUnits lists every per-layer metric with its unit, in report
// order; BENCHMARK.json repeats it and a test keeps the two in step.
var perLayerUnits = [][2]string{
	{"sim.events_per_create", "count"}, {"sim.event_ns", "ns"}, {"sim.queue_depth_max", "count"},

	{"shop.create_self_us", "us"}, {"shop.estimates_per_create", "count"}, {"shop.bid_rounds_per_create", "count"},
	{"shop.bid_virt_s", "s"}, {"shop.admission_wait_virt_p99_s", "s"}, {"shop.batch_wait_virt_p50_s", "s"},
	{"shop.shed_frac", "frac"}, {"shop.query_cpu_us", "us"}, {"shop.destroy_cpu_us", "us"},
	{"shop.restart_ms", "ms"}, {"shop.restart_us_per_record", "us"},

	{"plant.create_us", "us"}, {"plant.estimate_us", "us"}, {"plant.collect_us", "us"},
	{"plant.clone_virt_p50_s", "s"}, {"plant.hydration_complete_virt_p50_s", "s"}, {"plant.demand_faults_per_create", "count"},
	{"plant.configure_virt_p50_s", "s"}, {"plant.publish_backs_per_create", "count"}, {"plant.admission_wait_virt_p99_s", "s"},

	{"warehouse.cache_hit_frac", "frac"}, {"warehouse.lookups_per_create", "count"}, {"warehouse.openclone_us", "us"},
	{"warehouse.publish_us", "us"}, {"warehouse.retirements_per_create", "count"}, {"warehouse.extent_dedup_ratio", "ratio"},
	{"warehouse.matched_ops_frac", "frac"},

	{"match.best_us", "us"}, {"match.best_allocs", "count"}, {"match.candidates_per_call", "count"},
	{"classad.match_us", "us"}, {"classad.match_allocs", "count"},
	{"dag.xml_roundtrip_us", "us"}, {"dag.xml_roundtrip_allocs", "count"},

	{"journal.records_per_create", "count"}, {"journal.syncs_per_create", "count"}, {"journal.bytes_per_create", "B"},
	{"journal.appendsync_us", "us"}, {"journal.sync_virt_ms_per_create", "ms"},
	{"journal.replay_us_per_record", "us"}, {"journal.replayed_records", "count"},

	{"proto.marshal_us", "us"}, {"proto.unmarshal_us", "us"}, {"proto.roundtrip_allocs", "count"},
	{"proto.rpc_calls_per_create", "count"}, {"proto.dials_per_create", "count"}, {"proto.wire_bytes_per_create", "B"},
	{"proto.rpc_retries", "count"},

	{"service.create_wall_p50_us", "us"}, {"service.create_wall_p99_us", "us"},
	{"service.query_wall_p50_us", "us"}, {"service.query_wall_p99_us", "us"}, {"service.destroy_wall_p50_us", "us"},
	{"service.shop_handler_us", "us"}, {"service.plant_handler_us", "us"}, {"service.creates_per_s", "1/s"},

	{"telemetry.spans_per_create", "count"}, {"telemetry.flight_events_per_create", "count"}, {"telemetry.spans_dropped", "count"},

	{"price.journal_allocs", "count"}, {"price.journal_cpu_us", "us"}, {"price.journal_virt_s", "s"},
	{"price.telemetry_allocs", "count"}, {"price.telemetry_cpu_us", "us"},
	{"price.admission_allocs", "count"}, {"price.admission_cpu_us", "us"},
	{"price.lazyclone_virt_s", "s"}, {"price.wire_allocs", "count"},

	{"host.creates_per_s", "1/s"}, {"host.cpu_us_per_create_iqr", "frac"}, {"host.gc_cpu_frac", "frac"},
	{"host.gc_cycles_per_kcreate", "count"}, {"host.heap_live_mb", "MB"}, {"host.time_wait_sockets", "count"},
	{"bench.trace_overhead_frac", "frac"}, {"bench.self_time_sum_frac", "frac"},
}

// either is the first non-empty sample: the same boundary carries a
// different span name in process and over tcp.
func either(samples ...[]float64) []float64 {
	for _, xs := range samples {
		if len(xs) > 0 {
			return xs
		}
	}
	return nil
}

// perLayer computes every per-layer metric. Counts are summed over the
// traced epochs' timed phases and divided by their lifecycles.
func (t *tracedRun) perLayer() []metric {
	v := make(map[string]float64)
	for k, x := range t.micro {
		v[k] = x
	}
	for k, x := range t.price {
		v[k] = x
	}
	sp := t.tr.summarize()

	var lifecycles, matched, requested, dials, wireBytes float64
	counts := make(map[string]float64)
	gaugeMax := make(map[string]float64)
	gaugeMean := make(map[string][]float64)
	for _, e := range t.traced {
		lifecycles += float64(e.lifecycles)
		matched += float64(e.matchedOps)
		requested += float64(e.requestedOps)
		dials += e.wire.dials
		wireBytes += e.wire.bytes
		for k, x := range e.layers.counts {
			counts[k] += x
		}
		for k, x := range e.layers.gauges {
			gaugeMax[k] = max(gaugeMax[k], x)
			gaugeMean[k] = append(gaugeMean[k], x)
		}
	}
	per := func(name string) float64 { return ratio(counts[name], lifecycles) }

	v["sim.events_per_create"] = per("sim.events_dispatched")
	v["sim.queue_depth_max"] = gaugeMax["sim.queue_depth_max"]

	v["shop.create_self_us"] = ratio(sum(either(sp.selfByName["shop.create"], sp.selfByName["shop.create_many"])), lifecycles)
	v["shop.estimates_per_create"] = ratio(float64(len(sp.byName["plant.estimate"])), lifecycles)
	v["shop.bid_rounds_per_create"] = per("shop.bid_rounds")
	v["shop.bid_virt_s"] = mean(sp.bidVirt)
	v["shop.admission_wait_virt_p99_s"] = mean(gaugeMean["shop.admission_wait_p99"])
	v["shop.batch_wait_virt_p50_s"] = mean(gaugeMean["shop.batch_wait_p50"])
	v["shop.shed_frac"] = per("shop.shed_creates")

	// Phase costs and restart times come from the untraced half of each
	// pair: they are host times, and the spans would be in them.
	var queryCPU, queries, destroyCPU, destroys, replayed float64
	var restartMS, restartPerRec, perSec, cpus, gcCycles []float64
	for _, e := range t.untraced {
		queryCPU += e.query.cpu
		queries += float64(e.queries)
		destroyCPU += e.destroy.cpu
		destroys += float64(e.destroys)
		replayed += float64(e.replayed)
		restartMS = append(restartMS, e.restart.wall*1e3)
		restartPerRec = append(restartPerRec, ratio(e.restart.wall*1e6, float64(e.replayed)))
		perSec = append(perSec, ratio(float64(e.lifecycles), e.timed.wall))
		cpus = append(cpus, e.cpuUSPerCreate())
		gcCycles = append(gcCycles, ratio(e.timed.gcCycles*1000, float64(e.lifecycles)))
	}
	v["shop.query_cpu_us"] = ratio(queryCPU*1e6, queries)
	v["shop.destroy_cpu_us"] = ratio(destroyCPU*1e6, destroys)
	v["shop.restart_ms"] = median(restartMS)
	v["shop.restart_us_per_record"] = median(restartPerRec)
	v["journal.replayed_records"] = ratio(replayed, float64(len(t.untraced)))

	v["plant.create_us"] = mean(sp.byName["plant.create"])
	v["plant.estimate_us"] = mean(sp.byName["plant.estimate"])
	v["plant.collect_us"] = mean(either(sp.byName["plant.collect"], sp.byName["plant.destroy"]))
	v["plant.clone_virt_p50_s"] = mean(gaugeMean["plant.clone_p50"])
	v["plant.hydration_complete_virt_p50_s"] = mean(gaugeMean["plant.hydration_complete_p50"])
	v["plant.demand_faults_per_create"] = per("plant.demand_faults")
	v["plant.configure_virt_p50_s"] = mean(gaugeMean["plant.configure_p50"])
	v["plant.publish_backs_per_create"] = per("plant.publish_backs")
	v["plant.admission_wait_virt_p99_s"] = mean(gaugeMean["plant.admission_wait_p99"])

	v["warehouse.cache_hit_frac"] = ratio(counts["warehouse.cache_hits"], counts["warehouse.cache_hits"]+counts["warehouse.cache_misses"])
	v["warehouse.lookups_per_create"] = per("warehouse.lookups")
	v["warehouse.retirements_per_create"] = per("warehouse.retirements")
	v["warehouse.extent_dedup_ratio"] = mean(gaugeMean["warehouse.extent_dedup_ratio"])
	v["warehouse.matched_ops_frac"] = ratio(matched, requested)

	v["journal.records_per_create"] = per("journal.appends")
	v["journal.syncs_per_create"] = per("journal.syncs")
	v["journal.bytes_per_create"] = per("journal.bytes")
	v["journal.sync_virt_ms_per_create"] = t.micro["journal.sync_virt_ms"] * per("journal.syncs")

	v["proto.rpc_calls_per_create"] = per("proto.rpc_calls")
	v["proto.dials_per_create"] = ratio(dials, lifecycles)
	v["proto.wire_bytes_per_create"] = ratio(wireBytes, lifecycles)
	v["proto.rpc_retries"] = counts["proto.rpc_retries"]

	// A client operation is the ShopClient call over tcp and the call
	// into the shop in process.
	create := either(sp.byName["client.create"], sp.byName["shop.create"], sp.byName["shop.create_many"])
	query := either(sp.byName["client.query"], sp.byName["shop.query"])
	v["service.create_wall_p50_us"] = median(create)
	v["service.create_wall_p99_us"], _ = highPercentile(create)
	v["service.query_wall_p50_us"] = median(query)
	v["service.query_wall_p99_us"], _ = highPercentile(query)
	v["service.destroy_wall_p50_us"] = median(either(sp.byName["client.destroy"], sp.byName["shop.destroy"]))
	var shopSpans, plantSpans []float64
	for name, xs := range sp.byName {
		switch {
		case strings.HasPrefix(name, "shop."):
			shopSpans = append(shopSpans, xs...)
		case strings.HasPrefix(name, "plant."):
			plantSpans = append(plantSpans, xs...)
		}
	}
	v["service.shop_handler_us"] = mean(shopSpans)
	v["service.plant_handler_us"] = mean(plantSpans)
	v["service.creates_per_s"] = median(perSec)

	v["telemetry.spans_per_create"] = per("telemetry.spans")
	v["telemetry.flight_events_per_create"] = per("telemetry.flight_events")
	v["telemetry.spans_dropped"] = gaugeMax["telemetry.spans_dropped"]

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	v["host.creates_per_s"] = median(perSec)
	v["host.cpu_us_per_create_iqr"] = relIQR(cpus)
	v["host.gc_cpu_frac"] = ms.GCCPUFraction
	v["host.gc_cycles_per_kcreate"] = mean(gcCycles)
	v["host.heap_live_mb"] = float64(ms.HeapAlloc) / (1 << 20)
	v["host.time_wait_sockets"] = float64(timeWaitSockets())

	var overhead []float64
	for i := range t.traced {
		overhead = append(overhead, ratio(t.traced[i].timed.cpu, t.untraced[i].timed.cpu)-1)
	}
	v["bench.trace_overhead_frac"] = median(overhead)
	v["bench.self_time_sum_frac"] = sp.selfSumFrac

	out := make([]metric, 0, len(perLayerUnits))
	for _, nu := range perLayerUnits {
		out = append(out, metric{name: nu[0], value: v[nu[0]], unit: nu[1]})
	}
	return out
}

func (t *tracedRun) counts() (attempted, failed int, lastFailure string) {
	for _, es := range [][]*epochResult{t.untraced, t.traced} {
		for _, e := range es {
			attempted += e.attempted
			failed += e.failed
			if e.lastFailure != "" {
				lastFailure = e.lastFailure
			}
		}
	}
	return
}
