package warehouse

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vmplants/internal/core"
	"vmplants/internal/fault"
	"vmplants/internal/journal"
	"vmplants/internal/warehouse/ledger"
)

// The replay-twin property (internal/shop/twin_test.go's, for the
// warehouse): after every operation, folding the journal into a fresh
// ledger gives exactly the warehouse's live ledger — and that ledger is
// right about the world: its published set is the catalog, its extent
// references are the catalog's geometry (one per slot of every live
// seed), its quarantine set is what the client asked for. The first
// half holds by construction as long as record is the only writer; the
// second half is what makes each Apply arm matter — switch one off and
// fold and live ledger still agree with each other, but no longer with
// the catalog.

const (
	whTwinSeeds = 1000
	whTwinOps   = 24
	// whTwinRoom is the byte budget beyond the seeds: a derived image of
	// a 64 MB machine takes 73 MB, so one fits and the next retires it.
	whTwinRoom = 100 << 20
)

type whTwinOp int

const (
	whPublishSeed whTwinOp = iota
	whPublishDerived
	whQuarantine
	whUnquarantine
	whRemove
	whAttach
	whRestart
	whKillPublish
	whKillRetire
	nWhTwinOps
)

var whTwinOpNames = [nWhTwinOps]string{
	"publish-seed", "publish-derived", "quarantine", "unquarantine", "remove",
	"attach-journal", "restart", "kill@publish", "kill@retire",
}

// whTwin is one seed's rig: a warehouse that starts without a journal
// (SetJournal arrives mid-life, as an op), a byte budget that lets one
// derived image in before retirement fires, and the client's
// own idea of what is quarantined.
type whTwin struct {
	t          *testing.T
	seed       int64
	rng        *rand.Rand
	w          *Warehouse
	jnl        *journal.Journal
	faults     *fault.Registry
	quarantine map[string]string
	seq        int
	last       string
}

func TestReplayTwin(t *testing.T) {
	var ran [nWhTwinOps + 1]atomic.Int64 // the extra slot counts retirements
	for seed := int64(0); seed < whTwinSeeds && !t.Failed(); seed++ {
		runWhTwin(t, seed, &ran)
	}
	// The mix is only a test of an Apply arm if the op that needs the
	// arm actually ran.
	for op := whTwinOp(0); op < nWhTwinOps; op++ {
		if n := ran[op].Load(); n < whTwinSeeds/2 {
			t.Errorf("op %s completed only %d times over %d seeds", whTwinOpNames[op], n, whTwinSeeds)
		}
	}
	if n := ran[nWhTwinOps].Load(); n < whTwinSeeds/5 {
		t.Errorf("the byte budget retired only %d images over %d seeds", n, whTwinSeeds)
	}
}

func runWhTwin(t *testing.T, seed int64, ran *[nWhTwinOps + 1]atomic.Int64) {
	tw := &whTwin{
		t: t, seed: seed, rng: rand.New(rand.NewSource(seed)),
		w: newWarehouse(), jnl: testJournal(t), faults: fault.NewRegistry(seed),
		quarantine: map[string]string{},
	}
	tw.w.SetFaults(tw.faults)
	tw.w.SetCapacity(whTwinRoom)
	tw.publishSeed()
	for i := 0; i < whTwinOps && !t.Failed(); i++ {
		op := whTwinOp(tw.rng.Intn(int(nWhTwinOps)))
		tw.last = whTwinOpNames[op]
		retired := tw.w.Retirements()
		if tw.step(op) {
			ran[op].Add(1)
		}
		ran[nWhTwinOps].Add(tw.w.Retirements() - retired)
		tw.check()
	}
}

func (tw *whTwin) failf(format string, args ...any) {
	tw.t.Helper()
	tw.t.Errorf("seed %d after %s: %s", tw.seed, tw.last, fmt.Sprintf(format, args...))
}

// pick returns a random element ("" when there is none).
func (tw *whTwin) pick(names []string) string {
	if len(names) == 0 {
		return ""
	}
	return names[tw.rng.Intn(len(names))]
}

// seeds lists the published seed images; free keeps those no derived
// image holds a reference on.
func (tw *whTwin) seeds(free bool) []string {
	var out []string
	for _, name := range tw.w.List() {
		if im := tw.w.images[name]; !im.Derived && !(free && im.Refs() > 0) {
			out = append(out, name)
		}
	}
	return out
}

// newSeed builds an unpublished seed; two disk sizes, so that extents
// dedupe across some seeds and not others.
func (tw *whTwin) newSeed() *Image {
	tw.seq++
	spec := core.HardwareSpec{Arch: "x86", MemoryMB: 64, DiskMB: 1024 << (tw.seq % 2)}
	im, err := BuildGolden(fmt.Sprintf("seed-%d", tw.seq), spec, BackendVMware, history())
	if err != nil {
		tw.t.Fatal(err)
	}
	return im
}

// publishSeed publishes a seed and moves the byte budget up by what it
// took, so that the budget keeps meaning "room for one derived image".
func (tw *whTwin) publishSeed() bool {
	before := tw.w.BytesUsed()
	if err := tw.w.Publish(tw.newSeed()); err != nil {
		tw.failf("publish: %v", err)
	}
	tw.w.SetCapacity(tw.w.Capacity() + tw.w.BytesUsed() - before)
	return true
}

// step runs one op and reports whether it ran to completion (as opposed
// to finding nothing to act on).
func (tw *whTwin) step(op whTwinOp) bool {
	w := tw.w
	switch op {
	case whPublishSeed:
		return tw.publishSeed()
	case whPublishDerived:
		parent := tw.pick(tw.seeds(false))
		if parent == "" {
			return false
		}
		tw.seq++
		im := derivedOf(tw.t, w.images[parent], fmt.Sprintf("derived-%d", tw.seq), fmt.Sprintf("pkg-%d", tw.seq))
		// Refused when the budget is full of quarantined images; the twin
		// must hold either way.
		return w.PublishDerived(im, time.Duration(tw.seq)*time.Second) == nil
	case whQuarantine:
		name, reason := tw.pick(w.List()), fmt.Sprintf("twin: reason %d", tw.rng.Intn(1000))
		if w.Quarantine(name, reason) {
			tw.quarantine[name] = reason
			return true
		}
	case whUnquarantine:
		if name := tw.pick(w.Quarantined()); name != "" {
			if !w.Unquarantine(name) {
				tw.failf("unquarantine of %s refused", name)
			}
			delete(tw.quarantine, name)
			return true
		}
	case whRemove:
		return w.Remove(tw.pick(w.List())) == nil
	case whAttach:
		// The first attach imports the live state; a later one finds the
		// journal up to date and appends nothing.
		attached, before := w.jnl != nil, tw.journalLen()
		w.SetJournal(tw.jnl)
		if after := tw.journalLen(); attached && after != before {
			tw.failf("re-attaching an up-to-date journal appended %d records", after-before)
		}
		return true
	case whRestart:
		tw.restart()
		return true
	case whKillPublish:
		tw.faults.Arm(integritySite, fault.DaemonKill, fmt.Sprintf("publish:%d", tw.rng.Intn(DiskSpanFiles)), 1)
		if err := w.Publish(tw.newSeed()); err == nil || !strings.Contains(err.Error(), "killed") {
			tw.failf("publish survived the kill point: %v", err)
		}
		tw.foldEqualsLive()
		tw.restart()
		return true
	case whKillRetire:
		if name := tw.pick(tw.seeds(true)); name != "" {
			tw.faults.Arm(integritySite, fault.DaemonKill, fmt.Sprintf("retire:%d", tw.rng.Intn(DiskSpanFiles)), 1)
			if err := w.Remove(name); err != nil {
				tw.failf("remove of %s: %v", name, err)
			}
			tw.foldEqualsLive()
			tw.restart()
			return true
		}
	}
	return false
}

// restart restarts the daemon. Without a journal nothing keeps the
// quarantine set, and the client's idea of it goes too.
func (tw *whTwin) restart() {
	if tw.w.jnl == nil {
		tw.quarantine = map[string]string{}
	}
	st := tw.w.Restart()
	if st.CatalogMismatch != 0 {
		tw.failf("restart: %+v", st)
	}
}

func (tw *whTwin) journalLen() int {
	n := 0
	_, _ = tw.jnl.Replay(func(journal.Record) error { n++; return nil })
	return n
}

// foldEqualsLive is the twin itself: fold(journal) ≡ live ledger. It
// holds at every instant a record is not half-written, a kill between
// two store operations included.
func (tw *whTwin) foldEqualsLive() {
	if tw.w.jnl == nil {
		return
	}
	fresh := ledger.New()
	_, _ = tw.jnl.Replay(func(r journal.Record) error {
		fresh.Apply(r)
		return nil
	})
	if !reflect.DeepEqual(fresh, tw.w.led) {
		tw.failf("fold(journal) differs from the live ledger:\nfold %+v\nlive %+v", fresh, tw.w.led)
	}
}

// check runs after every op, each of which either ran to completion or
// ended in a Restart: the twin, then the ledger against the world.
func (tw *whTwin) check() {
	w := tw.w
	tw.foldEqualsLive()

	// Catalog membership, lineage included.
	if got, want := w.led.Published(), w.List(); len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
		tw.failf("ledger publishes %v, catalog holds %v", got, want)
	}
	// Refcounts = catalog geometry: one reference per slot of every
	// live seed, under the slot's content key, and a file behind it.
	type extent struct {
		size int64
		hash uint64
		refs int
	}
	want, got := map[uint64]extent{}, map[uint64]extent{}
	for _, name := range w.List() {
		im := w.images[name]
		if im.Derived {
			continue
		}
		for i := 0; i < DiskSpanFiles; i++ {
			size, hash := im.slot(i)
			key := extentKey(size, hash)
			want[key] = extent{size, hash, want[key].refs + 1}
		}
	}
	w.led.Extents(func(key uint64, size int64, hash uint64, refs int) {
		got[key] = extent{size, hash, refs}
		if !w.Volume().Exists(extentPath(key)) {
			tw.failf("stored extent %x has no file", key)
		}
	})
	if !reflect.DeepEqual(got, want) {
		tw.failf("extent references %v, catalog geometry %v", got, want)
	}
	// Quarantine: what the client put there, minus what left the catalog
	// (removal and retirement lift it).
	for name := range tw.quarantine {
		if _, ok := w.images[name]; !ok {
			delete(tw.quarantine, name)
		}
	}
	names := make([]string, 0, len(tw.quarantine))
	for name := range tw.quarantine {
		names = append(names, name)
	}
	sort.Strings(names)
	if q := w.Quarantined(); len(q) != len(names) || (len(names) > 0 && !reflect.DeepEqual(q, names)) {
		tw.failf("quarantined %v, want %v", q, names)
	}
	for _, name := range names {
		if reason, _ := w.QuarantineReason(name); reason != tw.quarantine[name] {
			tw.failf("%s quarantined for %q, want %q", name, reason, tw.quarantine[name])
		}
	}
}
