// Package fault is a deterministic, seeded fault-injection registry
// for the VMPlants stack. GridSim-style simulation substrates are
// exactly the place to model resource failure: because every draw
// comes from one seeded stream and the kernel serializes processes,
// a fault schedule replays bit-for-bit with the simulation it disturbs.
//
// A Registry holds rules keyed by (site, kind, op): per-site
// probabilities for recurring faults and one-shot triggers for scripted
// scenarios. Sites are plant names (or "*" for every site); ops qualify
// the injection point within a site — a DAG action op for action
// failures, "rpc" or "create" for crash points — with "" as the
// site-wide default. Injection points across the stack ask the registry
// whether to fail (Should), or how long to stall (DelayFor), and the
// registry counts every injection so experiments can report exactly
// what they survived.
//
// A nil *Registry answers every query with "no fault" at zero cost, so
// wiring is unconditional, like the telemetry hub's.
package fault

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"vmplants/internal/sim"
	"vmplants/internal/telemetry"
)

// Kind names one fault class.
type Kind string

// The fault taxonomy. Each kind is injected at a specific layer:
// PlantCrash and RPCDrop/RPCDelay at the shop↔plant transport, SlowBid
// on the plant's estimate path, CloneIO inside the production line's
// clone stage, ActionFail inside DAG configuration actions.
const (
	// PlantCrash kills the plant daemon: soft state (the VM Information
	// System) is lost until Recover rebuilds it; calls fail meanwhile.
	PlantCrash Kind = "plant-crash"
	// RPCDrop loses a control message: the caller sees a transport
	// error after a timeout's worth of virtual time.
	RPCDrop Kind = "rpc-drop"
	// RPCDelay stalls a control message without losing it.
	RPCDelay Kind = "rpc-delay"
	// CloneIO fails the clone's state copy mid-way (bad NFS read,
	// full local disk); the partial clone is destroyed.
	CloneIO Kind = "clone-io"
	// SlowBid stalls a plant's cost estimate past the shop's patience.
	SlowBid Kind = "slow-bid"
	// ActionFail fails one configuration action attempt, subject to the
	// DAG node's error policy (retries / handler / continue).
	ActionFail Kind = "action-fail"
	// CorruptExtent silently scrambles the recorded checksum of one
	// stored artifact at the storage layer — bit rot or a stale read
	// surfacing on a warehouse read path (clone open, scrub).
	CorruptExtent Kind = "corrupt-extent"
	// TornWrite corrupts an artifact as it is laid down: a publish that
	// reported success but left one file's content inconsistent with
	// its recorded checksum.
	TornWrite Kind = "torn-write"
	// DaemonKill hard-kills a control-plane daemon (kill -9) at a named
	// point in its protocol. A shop's site is its own name, with op
	// "intent" (after the creation intent is journaled, before
	// dispatch), "commit" (after the plant succeeded, before the commit
	// record lands) or "forward" (after a peer cell built a forwarded
	// creation, before the forward record lands; shop/federation.go).
	// The warehouse's site is "warehouse", with op "publish:k" or
	// "retire:k" (before extent reference k of a seed's publish is taken
	// or of its retirement released; warehouse/extentstore.go). The
	// daemon's journal loses its unsynced tail; soft state evaporates.
	DaemonKill Kind = "daemon-kill"
)

// Kinds lists every exported fault kind. Telemetry wiring derives its
// counter set from this slice, so a newly added kind cannot silently
// miss its injection counter.
var Kinds = []Kind{PlantCrash, RPCDrop, RPCDelay, CloneIO, SlowBid, ActionFail, CorruptExtent, TornWrite, DaemonKill}

// Wildcard matches every site in a rule key.
const Wildcard = "*"

// rule is one injection rule.
type rule struct {
	prob  float64       // recurring: per-check probability
	delay time.Duration // for delay kinds
	armed int           // one-shot trigger count (fires before prob)
}

type key struct {
	site string
	kind Kind
	op   string
}

// Registry decides fault injections deterministically. Safe for
// concurrent use; in-kernel callers are already serialized, and the
// mutex covers out-of-kernel observers (tests, debug endpoints).
type Registry struct {
	mu     sync.Mutex
	rng    *sim.RNG
	rules  map[key]*rule
	counts map[string]int64 // "site/kind/op" → injections

	tel map[Kind]*telemetry.Counter
}

// NewRegistry returns a registry drawing from a private stream seeded
// with seed.
func NewRegistry(seed int64) *Registry {
	return NewWithRNG(sim.NewRNG(seed))
}

// NewWithRNG returns a registry drawing from an existing stream — how
// the plant's FailProb adapter preserves the legacy draw sequence.
func NewWithRNG(rng *sim.RNG) *Registry {
	return &Registry{
		rng:    rng,
		rules:  make(map[key]*rule),
		counts: make(map[string]int64),
	}
}

// SetTelemetry wires per-kind injection counters
// ("fault.injections.<kind>"). Passing nil detaches them.
func (r *Registry) SetTelemetry(h *telemetry.Hub) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h == nil {
		r.tel = nil
		return
	}
	r.tel = make(map[Kind]*telemetry.Counter)
	for _, k := range Kinds {
		r.tel[k] = h.Counter("fault.injections." + string(k))
	}
}

// SetProb installs a recurring rule: every Should check at (site, kind,
// op) fires with probability prob. op "" makes the rule the site-wide
// default for the kind; site Wildcard applies to every site. A prob of
// 0 removes the recurring rule (any armed one-shots stay).
func (r *Registry) SetProb(site string, kind Kind, op string, prob float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.upsert(site, kind, op).prob = prob
}

// SetDelay sets the stall duration rules at (site, kind, op) inject
// when they fire.
func (r *Registry) SetDelay(site string, kind Kind, op string, d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.upsert(site, kind, op).delay = d
}

// Arm adds times one-shot triggers at (site, kind, op): the next times
// matching checks fire unconditionally, before any probability draw.
func (r *Registry) Arm(site string, kind Kind, op string, times int) {
	if r == nil || times <= 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.upsert(site, kind, op).armed += times
}

func (r *Registry) upsert(site string, kind Kind, op string) *rule {
	k := key{site, kind, op}
	ru, ok := r.rules[k]
	if !ok {
		ru = &rule{}
		r.rules[k] = ru
	}
	return ru
}

// lookup resolves the most specific matching rule:
// (site, op) → (*, op) → (site, "") → (*, "").
func (r *Registry) lookup(site string, kind Kind, op string) *rule {
	if op != "" {
		if ru, ok := r.rules[key{site, kind, op}]; ok {
			return ru
		}
		if ru, ok := r.rules[key{Wildcard, kind, op}]; ok {
			return ru
		}
	}
	if ru, ok := r.rules[key{site, kind, ""}]; ok {
		return ru
	}
	if ru, ok := r.rules[key{Wildcard, kind, ""}]; ok {
		return ru
	}
	return nil
}

// decide applies the matched rule: armed one-shots fire first, then the
// probability draw. Exactly one RNG draw is consumed per check whose
// rule has 0 < prob, and none otherwise, so adding never-firing rules
// does not perturb unrelated draws.
func (r *Registry) decide(site string, kind Kind, op string) bool {
	ru := r.lookup(site, kind, op)
	if ru == nil {
		return false
	}
	if ru.armed > 0 {
		ru.armed--
		r.record(site, kind, op)
		return true
	}
	if ru.prob > 0 && r.rng.Bernoulli(ru.prob) {
		r.record(site, kind, op)
		return true
	}
	return false
}

// Should reports whether the fault at (site, kind, op) fires now. Use
// op "" for checks with no finer qualifier.
func (r *Registry) Should(site string, kind Kind, op string) bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.decide(site, kind, op)
}

// DelayFor reports how long the delay fault at (site, kind, op) stalls
// the caller: the matched rule's delay when the check fires, 0
// otherwise.
func (r *Registry) DelayFor(site string, kind Kind, op string) time.Duration {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.decide(site, kind, op) {
		return 0
	}
	if ru := r.lookup(site, kind, op); ru != nil {
		return ru.delay
	}
	return 0
}

// record counts one injection under the registry's mutex.
func (r *Registry) record(site string, kind Kind, op string) {
	label := site + "/" + string(kind)
	if op != "" {
		label += "/" + op
	}
	r.counts[label]++
	r.tel[kind].Inc()
}

// Count reports injections recorded at exactly (site, kind, op).
func (r *Registry) Count(site string, kind Kind, op string) int64 {
	if r == nil {
		return 0
	}
	label := site + "/" + string(kind)
	if op != "" {
		label += "/" + op
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[label]
}

// Total reports injections of one kind across all sites and ops.
func (r *Registry) Total(kind Kind) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var n int64
	for label, c := range r.counts {
		if matchKind(label, kind) {
			n += c
		}
	}
	return n
}

func matchKind(label string, kind Kind) bool {
	// label is "site/kind" or "site/kind/op"; the site never contains
	// a slash.
	rest := label
	for i := 0; i < len(rest); i++ {
		if rest[i] == '/' {
			rest = rest[i+1:]
			break
		}
	}
	if rest == string(kind) {
		return true
	}
	return len(rest) > len(kind) && rest[:len(kind)] == string(kind) && rest[len(kind)] == '/'
}

// Counts returns a copy of all injection counts, keyed
// "site/kind[/op]" — deterministic inputs produce deterministic counts,
// so experiments report them directly.
func (r *Registry) Counts() map[string]int64 {
	out := make(map[string]int64)
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, v := range r.counts {
		out[k] = v
	}
	return out
}

// Summary renders the injection counts as sorted "label=n" lines for
// logs and experiment tables.
func (r *Registry) Summary() []string {
	counts := r.Counts()
	labels := make([]string, 0, len(counts))
	for l := range counts {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	out := make([]string, len(labels))
	for i, l := range labels {
		out[i] = fmt.Sprintf("%s=%d", l, counts[l])
	}
	return out
}
