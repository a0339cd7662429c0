package main

import (
	"vmplants/internal/telemetry"
	"vmplants/internal/warehouse"
)

// hubCounters are the registry counters the per-layer metrics are
// ratios of; they are read where the timed phase starts and ends.
var hubCounters = []string{
	"sim.events_dispatched",
	"shop.bid_rounds", "shop.shed_creates",
	"plant.demand_faults", "plant.publish_backs",
	"warehouse.cache_hits", "warehouse.cache_misses", "warehouse.lookups", "warehouse.retirements",
	"journal.appends", "journal.syncs", "journal.bytes",
	"proto.rpc_calls", "proto.rpc_retries",
}

// hubQuantiles are the virtual-clock histograms read once the timed
// phase ends (they are reset where it starts).
var hubQuantiles = []struct {
	hist string
	q    float64
	key  string
}{
	{"shop.admission_wait_secs", 0.99, "shop.admission_wait_p99"},
	{"shop.batch_wait_secs", 0.50, "shop.batch_wait_p50"},
	{"plant.clone_secs", 0.50, "plant.clone_p50"},
	{"plant.hydration_complete_secs", 0.50, "plant.hydration_complete_p50"},
	{"plant.configure_secs", 0.50, "plant.configure_p50"},
	{"plant.admission_wait_secs", 0.99, "plant.admission_wait_p99"},
}

// layers is one reading of the hub registries: cumulative counts, from
// which a phase's share is a difference, and end-of-phase readings.
type layers struct {
	counts map[string]float64
	gauges map[string]float64
}

// readCounts sums the counters over a deployment's hubs (one in
// process; one per daemon over tcp), with the tracer's and the flight
// recorder's totals, which the registry does not carry.
func readCounts(hubs []*telemetry.Hub) layers {
	l := layers{counts: make(map[string]float64), gauges: make(map[string]float64)}
	for _, h := range hubs {
		if h == nil {
			continue
		}
		for _, name := range hubCounters {
			l.counts[name] += float64(h.Counter(name).Value())
		}
		l.counts["telemetry.spans"] += float64(len(h.T().Spans())) + float64(h.T().Dropped())
		if evs := h.F().Events(""); len(evs) > 0 {
			l.counts["telemetry.flight_events"] += float64(evs[len(evs)-1].Seq)
		}
	}
	return l
}

func (l layers) minus(before layers) layers {
	out := layers{counts: make(map[string]float64, len(l.counts)), gauges: l.gauges}
	for k, v := range l.counts {
		out.counts[k] = v - before.counts[k]
	}
	return out
}

// readGauges takes the end-of-phase readings: queue high-water mark,
// dropped spans, the histogram quantiles (averaged over the hubs that
// observed anything, since each tcp daemon has its own) and one
// warehouse's extent dedup ratio.
func (l layers) readGauges(hubs []*telemetry.Hub, wh *warehouse.Warehouse) {
	l.gauges["warehouse.extent_dedup_ratio"] = wh.ExtentStatsNow().DedupRatio()
	for _, h := range hubs {
		if h == nil {
			continue
		}
		l.gauges["sim.queue_depth_max"] = max(l.gauges["sim.queue_depth_max"], float64(h.Gauge("sim.queue_depth_max").Value()))
		l.gauges["telemetry.spans_dropped"] += float64(h.T().Dropped())
	}
	for _, hq := range hubQuantiles {
		var vals []float64
		for _, h := range hubs {
			if hist := h.Histogram(hq.hist); hist.Count() > 0 {
				vals = append(vals, hist.Quantile(hq.q))
			}
		}
		l.gauges[hq.key] = mean(vals)
	}
}
