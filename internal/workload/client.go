package workload

import (
	"fmt"
	"sort"
	"time"

	"vmplants/internal/classad"
	"vmplants/internal/core"
	"vmplants/internal/plant"
	"vmplants/internal/shop"
	"vmplants/internal/sim"
	"vmplants/internal/telemetry"
)

// The client side every scenario shares: bounded resubmission, the
// Zipf user stream, and the end-of-run audits.

// retry calls op until it succeeds or has failed retries+1 times. After
// each failure that leaves an attempt, wait runs the caller's policy —
// a backoff, or a supervisor restarting a dead daemon — and a non-nil
// return from it aborts. retry reports how many attempts failed and the
// last error.
func retry(retries int, op func() error, wait func(try int, err error) error) (failed int, err error) {
	for try := 0; ; try++ {
		if err = op(); err == nil || try >= retries {
			return try, err
		}
		if werr := wait(try, err); werr != nil {
			return try, werr
		}
	}
}

// createRetrying submits spec to s under retry.
func createRetrying(p *sim.Proc, s *shop.Shop, spec *core.Spec, retries int, wait func(try int, err error) error) (id core.VMID, ad *classad.Ad, failed int, err error) {
	failed, err = retry(retries, func() (cerr error) {
		id, ad, cerr = s.Create(p, spec)
		return cerr
	}, wait)
	return id, ad, failed, err
}

// backoff is the plainest retry policy: sleep d, then try again.
func backoff(p *sim.Proc, d time.Duration) func(int, error) error {
	return func(int, error) error {
		p.Sleep(d)
		return nil
	}
}

// zipfUsers draws a request stream over a catalog of users, up front
// from a private generator so the sequence depends only on the seed.
// Every user's first login lands in the first half — the catalog sweep
// — and the steady-state tail is a Zipf draw (s = 1.2) over the same
// catalog. Requests from the same user carry an identical
// personalization DAG, so repeats can match a derived image fully.
func zipfUsers(seed int64, requests, users int) []int {
	rng := sim.NewRNG(seed*31 + 7)
	stream := make([]int, requests)
	sweep := min(users, requests/2)
	for i := 0; i < sweep; i++ {
		stream[i] = i
	}
	for i := sweep; i < requests; i++ {
		stream[i] = rng.Zipf(users, 1.2)
	}
	return stream
}

// residue counts what a fully collected site must not have: VMs still
// hosted on any of the plants, and host-only network slots never
// released.
func residue(plants []*plant.Plant) (vms, nets int) {
	for _, pl := range plants {
		vms += pl.ActiveVMs()
		pool := pl.Networks()
		nets += pool.Size() - pool.FreeCount()
	}
	return vms, nets
}

// duplicates is the exactly-once audit's second half: live VMs hosted
// beyond one per acknowledged creation, plus acknowledgements that
// share a VM.
func duplicates(acked []core.VMID, live int) int {
	unique := make(map[core.VMID]bool, len(acked))
	for _, id := range acked {
		unique[id] = true
	}
	return live - len(unique) + len(acked) - len(unique)
}

// injectionReport renders a fault registry's per-site counts.
func injectionReport(injections map[string]int64) []string {
	labels := make([]string, 0, len(injections))
	for l := range injections {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	out := make([]string, len(labels))
	for i, l := range labels {
		out[i] = fmt.Sprintf("injected %-28s %d", l, injections[l])
	}
	return out
}

// installSLOs gives the hub the standing objectives over a clean
// slate: snapshots and SLO evaluations must never mix samples from an
// earlier experiment sharing the metrics registry.
func installSLOs(hub *telemetry.Hub) {
	hub.M().ResetHistograms()
	hub.SLO = telemetry.NewSLOEngine(hub.M(), DefaultSLOObjectives()...)
}

// evaluateSLOs evaluates the hub's standing objectives at the end of
// virtual time, logging each status to the fingerprint.
func evaluateSLOs(hub *telemetry.Hub, now time.Duration, t *transcript) (statuses []telemetry.ObjectiveStatus, hold bool) {
	statuses = hub.SLO.Evaluate(now)
	hold = true
	for _, st := range statuses {
		hold = hold && st.OK
		t.logf("slo %s ok=%v value=%.6g bound=%g samples=%d burn=%.6g",
			st.Name, st.OK, st.Value, st.Bound, st.Samples, st.Burn)
	}
	return statuses, hold
}

// objectiveReport renders objective statuses as report lines.
func objectiveReport(statuses []telemetry.ObjectiveStatus) []string {
	out := make([]string, len(statuses))
	for i, st := range statuses {
		out[i] = fmt.Sprintf("slo %-16s ok=%-5v value=%.4g bound=%g burn=%.3g (n=%d)",
			st.Name, st.OK, st.Value, st.Bound, st.Burn, st.Samples)
	}
	return out
}
