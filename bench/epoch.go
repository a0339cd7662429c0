package main

import (
	"fmt"
	"strings"
	"time"

	"vmplants/internal/classad"
	"vmplants/internal/core"
	"vmplants/internal/journal"
	"vmplants/internal/shop"
	"vmplants/internal/sim"
	"vmplants/internal/telemetry"
	"vmplants/internal/warehouse"
)

// shape is a workload's traffic: how many VMs stay alive, how many
// lifecycles an epoch runs and what one lifecycle does. Counts are per
// client.
type shape struct {
	// resident is how many VMs are alive while lifecycles run.
	resident int
	// lifecycles per epoch. One lifecycle creates a VM, queries
	// queriesPer random residents, then checks and destroys the oldest,
	// so occupancy is steady and creation latency stays in the paper's
	// envelope.
	lifecycles int
	queriesPer int
	// batch, when non-zero, submits creations batch at a time, all
	// together; the previous batch is destroyed first, and resident is
	// not used.
	batch int
	// queryPhase is the length of the query-only phase.
	queryPhase int
	// users, when non-zero, gives each request an owner among that many
	// users' personalisations, by a Zipf law with exponent zipfS.
	users int
	zipfS float64
}

// rounds is how many lifecycle calls an epoch's timed phase makes.
func (sh *shape) rounds() int {
	if sh.batch > 0 {
		return sh.lifecycles / sh.batch
	}
	return sh.lifecycles
}

// phase is what one run of the clients spanned on the virtual clock.
type phase struct {
	virtSecs   float64
	createVirt []float64 // virtual latency of each creation made in it, s
}

// transport is one epoch's deployment as the epoch driver sees it: the
// calls that differ between driving the shop inside one simulation
// kernel and driving the daemons over loopback tcp.
type transport interface {
	// clients is how many closed loops drive the deployment at once.
	clients() int
	// run executes body once per client, all clients at once, waits for
	// them and for the work they left behind, and says what that
	// spanned on the virtual clock.
	run(body func(client int) error) (phase, error)
	// now is the client's virtual clock; 0 where it has none.
	now(client int) time.Duration
	// boundary is where a client's call enters the program: the layer
	// and name prefix of the span around it.
	boundary() (layer int, prefix string)
	// spec builds the client's request number seq (1-based).
	spec(client, seq int) (*core.Spec, error)
	// create submits the specs together — one plain creation when there
	// is one — and returns a result per spec.
	create(client int, specs []*core.Spec) []shop.BatchResult
	query(client int, id core.VMID) (*classad.Ad, error)
	destroy(client int, id core.VMID) error
	// restart kills the shop daemon and brings it back from its journal.
	restart() (shop.RestartStats, error)
	// journals are the deployment's logs, the shop's first; none when
	// journaling is switched off.
	journals() []*journal.Journal
	hubs() []*telemetry.Hub
	// wire is what the listeners have seen so far.
	wire() wireCounts
	// close stops what the deployment started; calling it again is
	// harmless.
	close()
	// auditEmpty checks that no plant knows any of the destroyed VMs
	// and that the deployment is empty, once everything is destroyed
	// and close has been called.
	auditEmpty(destroyed []core.VMID) error
	// warehouse is a warehouse the requests are matched against.
	warehouse() *warehouse.Warehouse
	// micro is what the micro-drivers need from the deployment; last is
	// the last request served.
	micro(last *core.Spec) microInputs
}

// wireCounts is what the listeners saw.
type wireCounts struct{ dials, bytes float64 }

// load is a workload's traffic and the deployment it runs against.
type load struct {
	shape
	build func(seed int64, sh *shape, tr *tracer) (transport, error)
}

// loop is one client: a closed loop with one request outstanding (one
// batch, when the shape has batches). Loops share nothing while they
// run; their counts are merged after each phase.
type loop struct {
	n   int // client number, from 0
	sh  *shape
	t   transport
	tr  *tracer
	rng *sim.RNG

	live []core.VMID // oldest first
	seq  int         // requests issued this epoch

	attempted, failed int
	lastFailure       string
	creates           int // successful timed creations
	// matched/requested feed warehouse.matched_ops_frac.
	matched, requested int
	lastSpec           *core.Spec
	destroyed          []core.VMID
}

// lifecycleBase keeps the clients' lifecycle and request numbers apart.
const lifecycleBase = 1_000_000

// op counts one attempted operation and, when it failed, one failure.
func (c *loop) op(err error) bool {
	c.attempted++
	if err == nil {
		return true
	}
	c.failed++
	c.lastFailure = err.Error()
	if strings.Contains(c.lastFailure, "cannot assign requested address") {
		// Loopback ran out of ephemeral ports towards one daemon: say
		// so, or it reads as a timeout.
		c.lastFailure = "EADDRNOTAVAIL: " + c.lastFailure
	}
	return false
}

// span opens a span around one of the client's calls. The gated run
// must not pay for the span's name.
func (c *loop) span(call string, lc int) *span {
	if c.tr == nil {
		return nil
	}
	layer, prefix := c.t.boundary()
	return c.tr.start(layer, prefix+call, lc, c.t.now(c.n))
}

func (c *loop) endSpan(s *span) {
	if s != nil {
		c.tr.end(s, c.t.now(c.n))
	}
}

// create issues n creations together and keeps the VMs.
func (c *loop) create(lc, n int, timed bool) error {
	specs := make([]*core.Spec, n)
	for i := range specs {
		c.seq++
		spec, err := c.t.spec(c.n, c.seq)
		if err != nil {
			return err
		}
		spec.Name = specName(lc, i)
		spec.RequestID = fmt.Sprintf("req-%d", c.n*lifecycleBase+c.seq)
		specs[i] = spec
	}
	call := "create"
	if n > 1 {
		call = "create_many"
	}
	sp := c.span(call, lc)
	results := c.t.create(c.n, specs)
	c.endSpan(sp)
	for i, r := range results {
		if !c.op(r.Err) {
			continue
		}
		if timed {
			c.creates++
		}
		c.matched += int(r.Ad.GetInt(core.AttrMatchedOps, 0))
		c.requested += specs[i].Graph.Len()
		c.lastSpec = specs[i]
		c.live = append(c.live, r.VMID)
	}
	return nil
}

// query asks the shop for a random resident's classad.
func (c *loop) query(lc int) {
	if len(c.live) == 0 {
		return
	}
	id := c.live[c.rng.Intn(len(c.live))]
	c.tr.act(id, lc)
	sp := c.span("query", lc)
	_, err := c.t.query(c.n, id)
	c.endSpan(sp)
	c.op(err)
}

// destroyOldest is the output audit every VM passes through: it must
// answer Query as running and its destroy must succeed; that no plant
// knows it afterwards is checked when the epoch ends. A violation is an
// error, not a failure count.
func (c *loop) destroyOldest(lc int) error {
	id := c.live[0]
	c.live = c.live[1:]
	c.tr.act(id, lc)
	sp := c.span("query", lc)
	ad, err := c.t.query(c.n, id)
	c.endSpan(sp)
	if c.op(err) {
		if st := ad.GetString(core.AttrState, ""); st != core.StateRunning.String() {
			return fmt.Errorf("audit: VM %s is %q before its destroy, want running", id, st)
		}
	}
	sp = c.span("destroy", lc)
	err = c.t.destroy(c.n, id)
	c.endSpan(sp)
	if c.op(err) {
		c.destroyed = append(c.destroyed, id)
	}
	return nil
}

func (c *loop) destroyAll(lc int) error {
	for len(c.live) > 0 {
		if err := c.destroyOldest(lc); err != nil {
			return err
		}
	}
	return nil
}

// lifecycle runs one round: create, queries, destroy the oldest. With
// batches a round is a whole batch: the previous batch goes first.
func (c *loop) lifecycle(round int) error {
	lc := c.n*lifecycleBase + round
	var root *span
	if c.tr != nil {
		root = c.tr.start(layerLifecycle, "lifecycle", lc, c.t.now(c.n))
	}
	defer func() { c.endSpan(root) }()
	if c.sh.batch > 0 {
		if err := c.destroyAll(lc); err != nil {
			return err
		}
		return c.create(lc, c.sh.batch, true)
	}
	if err := c.create(lc, 1, true); err != nil {
		return err
	}
	for q := 0; q < c.sh.queriesPer; q++ {
		c.query(lc)
	}
	if len(c.live) > c.sh.resident {
		return c.destroyOldest(lc)
	}
	return nil
}

// fill is the set-up's traffic: the resident set, or the first batch.
func (c *loop) fill() error {
	if c.sh.batch > 0 {
		return c.create(0, c.sh.batch, false)
	}
	for len(c.live) < c.sh.resident && c.failed == 0 {
		if err := c.create(0, 1, false); err != nil {
			return err
		}
	}
	return nil
}

// epoch runs one epoch on a fresh deployment: set-up (build, publish,
// fill the resident set), the timed lifecycles, a query-only phase, a
// kill+restart of the shop, and a teardown that must leave the
// deployment empty. tr is nil in the gated run.
func (w *load) epoch(seed int64, tr *tracer) (*epochResult, error) {
	res := &epochResult{}
	sh := &w.shape

	h0 := readHost()
	t, err := w.build(seed, sh, tr)
	if err != nil {
		return nil, err
	}
	defer t.close()
	clients := make([]*loop, t.clients())
	for i := range clients {
		clients[i] = &loop{n: i, sh: sh, t: t, tr: tr, rng: sim.NewRNG(mix64(seed, int64(i)))}
	}
	// run executes one phase on every client and folds their operation
	// counts into the epoch.
	run := func(body func(c *loop) error) (phase, error) {
		ph, err := t.run(func(client int) error { return body(clients[client]) })
		for _, c := range clients {
			res.attempted += c.attempted
			res.failed += c.failed
			if c.lastFailure != "" {
				res.lastFailure = c.lastFailure
			}
			c.attempted, c.failed = 0, 0
		}
		return ph, err
	}

	if _, err := run((*loop).fill); err != nil {
		return nil, err
	}
	res.setup = h0.until(readHost())

	// Timed phase.
	hubs := t.hubs()
	var before layers
	if tr != nil {
		for _, h := range hubs {
			h.M().ResetHistograms()
		}
		before = readCounts(hubs)
	}
	wire0 := t.wire()
	h1 := readHost()
	timed, err := run(func(c *loop) error {
		for round := 1; round <= sh.rounds(); round++ {
			if err := c.lifecycle(round); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.timed = h1.until(readHost())
	res.timedVirt, res.createVirt = timed.virtSecs, timed.createVirt
	res.lifecycles = sh.lifecycles * len(clients)
	wire1 := t.wire()
	res.wire = wireCounts{dials: wire1.dials - wire0.dials, bytes: wire1.bytes - wire0.bytes}
	if tr != nil {
		res.layers = readCounts(hubs).minus(before)
		res.layers.readGauges(hubs, t.warehouse())
	}
	for _, c := range clients {
		res.creates += c.creates
		res.matchedOps += c.matched
		res.requestedOps += c.requested
	}

	// Query-only phase.
	perClient := sh.queryPhase / len(clients)
	h2 := readHost()
	if _, err := run(func(c *loop) error {
		for q := 0; q < perClient; q++ {
			c.query(0)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	res.query, res.queries = h2.until(readHost()), perClient*len(clients)

	// Kill -9 the shop daemon and bring it back from its journal; the
	// resident set must still be reachable through it afterwards.
	live := 0
	for _, c := range clients {
		live += len(c.live)
	}
	if len(t.journals()) > 0 {
		h3 := readHost()
		st, err := t.restart()
		res.restart = h3.until(readHost())
		res.attempted++
		if err != nil {
			res.failed++
			res.lastFailure = err.Error()
		} else {
			res.replayed = st.Replayed
			if st.Routes != live {
				return nil, fmt.Errorf("audit: restart rebuilt %d routes for %d live VMs", st.Routes, live)
			}
		}
	}

	// Teardown, which is also the destroy-only phase.
	h4 := readHost()
	res.destroys = live
	if _, err := run(func(c *loop) error { return c.destroyAll(0) }); err != nil {
		return nil, err
	}
	res.destroy = h4.until(readHost())
	t.close()
	if res.failed == 0 {
		var destroyed []core.VMID
		for _, c := range clients {
			destroyed = append(destroyed, c.destroyed...)
		}
		if err := t.auditEmpty(destroyed); err != nil {
			return nil, fmt.Errorf("audit: %w", err)
		}
		for _, j := range t.journals() {
			if _, bad := j.Verify(); bad != 0 {
				return nil, fmt.Errorf("audit: journal %s: %d bad records", j.Dir(), bad)
			}
		}
	}
	if tr != nil {
		res.micro = t.micro(clients[0].lastSpec)
	}
	return res, nil
}
