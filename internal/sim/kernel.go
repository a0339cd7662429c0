//go:build go1.23

// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel models virtual time. Simulation actors are "processes":
// coroutines of the kernel's Run loop, run one at a time in strict
// event-timestamp order, so a simulation with a fixed RNG seed is fully
// deterministic regardless of the host scheduler. A process interacts
// with virtual time exclusively through its *Proc handle (Sleep, Wait,
// resource acquisition); Run resumes the process whose wake-up is due
// and the process parks back into Run, each a direct switch on the same
// thread (iter.Pull) with no run queue or wake-up of a second thread in
// between. This mirrors the classic process-oriented simulation style
// (SimPy, CSIM). Ties on timestamps are broken by event sequence number,
// so FIFO ordering among same-time events is preserved.
//
// The coroutine is a carrier that outlives the body it runs: a process
// takes one at its first dispatch, and when its body returns Run parks
// the carrier on a small process-wide free list for the next process of
// any kernel, so a warm Spawn costs one Proc and no goroutine start. A
// process has at most one pending wake-up, which lives inside the Proc;
// scheduling an event allocates nothing.
//
// A panic in a process body is the kernel's failure: it is re-raised in
// Run's caller with the process name, the virtual time and the process's
// stack, and every later Spawn or Run on that kernel panics with the same
// value. State a half-finished process left behind is never run over.
//
// The go1.23 build line raises this file's language version for iter;
// go.mod still says 1.22 (see the ROADMAP's `benchmark` item).
package sim

import (
	"container/heap"
	"fmt"
	"iter"
	"math"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"vmplants/internal/telemetry"
)

// eventQueue is a min-heap of scheduled processes ordered by (at, seq).
// The event is the process's own at/seq/idx fields.
type eventQueue []*Proc

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].idx = i
	q[j].idx = j
}
func (q *eventQueue) Push(x any) {
	p := x.(*Proc)
	p.idx = len(*q)
	*q = append(*q, p)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	p := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	p.idx = unscheduled
	return p
}

// unscheduled is Proc.idx while the process has no pending wake-up.
const unscheduled = -1

// carrier is a coroutine of Run that runs process bodies, one after
// another. next resumes it; inside, park switches back to Run.
type carrier struct {
	next func() (struct{}, bool)
	stop func()
	park func(struct{}) bool
	proc *Proc // the body to run at the next resume from idle
}

// maxIdleCarriers caps the free list; a carrier released beyond it is
// stopped. Live carriers peak at 7 / 81 / 10 / 3 on the bench's churn /
// batch / catalog / tcp workloads, and caps of 64 and 256 measured the
// same there.
const maxIdleCarriers = 128

// idleCarriers is the process-wide free list of parked carriers. It is
// shared by all kernels because a kernel has no Close: a per-kernel list
// would leak its parked goroutines when the kernel is dropped.
var idleCarriers struct {
	sync.Mutex
	list []*carrier
}

// Idle reports how many parked carriers (each one goroutine) wait on the
// free list, for goroutine-leak checks to subtract.
func Idle() int {
	idleCarriers.Lock()
	defer idleCarriers.Unlock()
	return len(idleCarriers.list)
}

func takeCarrier() *carrier {
	idleCarriers.Lock()
	if n := len(idleCarriers.list); n > 0 {
		c := idleCarriers.list[n-1]
		idleCarriers.list[n-1] = nil
		idleCarriers.list = idleCarriers.list[:n-1]
		idleCarriers.Unlock()
		return c
	}
	idleCarriers.Unlock()
	c := &carrier{}
	c.next, c.stop = iter.Pull(c.run)
	return c
}

// release parks c on the free list. Only Run calls it, after c.next has
// returned: a carrier listed from inside its own coroutine could be
// resumed by another kernel before it has parked.
func (c *carrier) release() {
	idleCarriers.Lock()
	if len(idleCarriers.list) < maxIdleCarriers {
		idleCarriers.list = append(idleCarriers.list, c)
		c = nil
	}
	idleCarriers.Unlock()
	if c != nil {
		c.stop()
	}
}

// run is the carrier's coroutine: run the assigned body, park, repeat
// until stopped.
func (c *carrier) run(park func(struct{}) bool) {
	c.park = park
	for {
		c.proc.exec()
		c.proc = nil
		if !park(struct{}{}) {
			return
		}
	}
}

// Kernel is a discrete-event simulation. The zero value is not usable;
// create one with NewKernel.
//
// A Kernel is not safe for concurrent use from multiple host goroutines:
// Run must be called from exactly one goroutine, and all process code is
// serialized by the kernel itself.
type Kernel struct {
	now        time.Duration
	seq        uint64
	dispatched uint64
	queue      eventQueue
	procs      map[int64]*Proc
	nextID     int64
	running    bool
	failed     string // the first process panic; the kernel is unusable after it

	// Telemetry instruments (nil-safe no-ops when unset).
	gQueueDepth *telemetry.Gauge
	gQueueMax   *telemetry.Gauge
	cEvents     *telemetry.Counter
}

// NewKernel returns an empty simulation at virtual time zero.
func NewKernel() *Kernel {
	return &Kernel{procs: make(map[int64]*Proc)}
}

// Now reports the current virtual time as an offset from simulation start.
func (k *Kernel) Now() time.Duration { return k.now }

// QueueDepth reports how many events are pending.
func (k *Kernel) QueueDepth() int { return k.queue.Len() }

// SetTelemetry wires the kernel's instruments: the event-queue depth
// gauge ("sim.queue_depth", with "sim.queue_depth_max" as high-water
// mark) and the dispatched-event counter ("sim.events_dispatched").
// Passing nil detaches them.
func (k *Kernel) SetTelemetry(h *telemetry.Hub) {
	k.gQueueDepth = h.Gauge("sim.queue_depth")
	k.gQueueMax = h.Gauge("sim.queue_depth_max")
	k.cEvents = h.Counter("sim.events_dispatched")
}

// ProcState describes the lifecycle of a simulation process.
type ProcState int

// Process lifecycle states.
const (
	ProcReady   ProcState = iota // spawned, not yet started
	ProcRunning                  // currently executing
	ProcBlocked                  // waiting on a queue, resource, or signal
	ProcDone                     // body returned
)

// Proc is the kernel-side handle for one simulation process. All methods
// must be called from within some running process or before Run starts,
// as documented per method.
type Proc struct {
	k     *Kernel
	id    int64
	name  string
	state ProcState
	fn    func(p *Proc)
	c     *carrier // held from first dispatch until the body returns

	// The process's one pending wake-up: due time, tie-break and
	// position in the kernel's queue (unscheduled when there is none).
	at  time.Duration
	seq uint64
	idx int

	// interrupted is set when another process wakes this one out of a
	// Wait before its deadline.
	interrupted bool

	// qnext and qn are the process's node in the queue of the one
	// resource it is blocked on, or of the pipe it has a transfer on: the
	// link, and the units it asked for.
	qnext *Proc
	qn    int
	// x is the process's transfer in progress (Pipe.Transfer).
	x transfer

	// trace is the process's current trace context — which span new
	// work on this proc should parent under. Only the proc's own
	// body touches it, and its spawner before it first runs (the
	// kernel serializes processes), so no lock is needed.
	trace telemetry.SpanContext
}

// Trace returns the process's current trace context (zero when no
// trace is active).
func (p *Proc) Trace() telemetry.SpanContext { return p.trace }

// SetTrace installs a trace context on the process and returns the
// previous one, so a caller scoping a span can restore it:
//
//	prev := p.SetTrace(sp.Context())
//	defer p.SetTrace(prev)
func (p *Proc) SetTrace(sc telemetry.SpanContext) telemetry.SpanContext {
	prev := p.trace
	p.trace = sc
	return prev
}

// ID returns the process's unique id within its kernel.
func (p *Proc) ID() int64 { return p.id }

// Name returns the name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Kernel returns the owning kernel. Useful for spawning children.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now reports current virtual time. Callable only while p is running.
func (p *Proc) Now() time.Duration { return p.k.now }

// State reports the process's lifecycle state.
func (p *Proc) State() ProcState { return p.state }

// Spawn registers a new process whose body is fn and schedules it to
// start at the current virtual time. Spawn may be called before Run or
// from inside a running process. It panics on a kernel a process panic
// has failed.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	if k.failed != "" {
		panic(k.failed)
	}
	k.nextID++
	p := &Proc{
		k:     k,
		id:    k.nextID,
		name:  name,
		state: ProcReady,
		fn:    fn,
		idx:   unscheduled,
	}
	k.procs[p.id] = p
	p.scheduleAt(k.now)
	return p
}

// exec runs the process body on its carrier. A panic in the body fails
// the kernel: the value is wrapped with what the kernel knows and the
// body's stack (the coroutine switch would drop it), and re-raised; the
// switch carries it to Run's caller.
func (p *Proc) exec() {
	k := p.k
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		delete(k.procs, p.id)
		msg, ok := r.(failure)
		if !ok {
			msg = failure(fmt.Sprintf("sim: t=%v proc=%q: panic: %v", k.now, p.name, r))
		}
		failed := fmt.Sprintf("%s\n\n%s", msg, debug.Stack())
		if k.failed == "" {
			k.failed = failed
		}
		panic(failed)
	}()
	p.state = ProcRunning
	// A handle outlives its process (waiter lists, callers of Spawn) and
	// must not pin what the body captured: +18 % peak RSS on the bench's
	// batch workload when it did.
	fn := p.fn
	p.fn = nil
	fn(p)
	p.state = ProcDone
	delete(k.procs, p.id)
}

// scheduleAt enqueues p's wakeup at time at (clamped to >= now). A
// process has at most one: Sleep and Wait schedule the running process,
// WakeUp cancels before it schedules, Spawn schedules a fresh one.
func (p *Proc) scheduleAt(at time.Duration) {
	if p.idx != unscheduled {
		panic(fmt.Sprintf("sim: proc %q scheduled twice", p.name))
	}
	k := p.k
	if at < k.now {
		at = k.now
	}
	k.seq++
	p.at, p.seq = at, k.seq
	heap.Push(&k.queue, p)
}

// cancelPending removes p's scheduled wakeup, if any.
func (p *Proc) cancelPending() {
	if p.idx != unscheduled {
		heap.Remove(&p.k.queue, p.idx)
	}
}

// yield switches back to the Run loop and returns when the kernel
// resumes this process.
func (p *Proc) yield() {
	p.state = ProcBlocked
	p.c.park(struct{}{})
	p.state = ProcRunning
}

// Sleep suspends the calling process for d of virtual time. A zero or
// negative d yields to other same-time events and returns.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.scheduleAt(p.k.now + d)
	p.yield()
	p.interrupted = false
}

// Wait suspends the calling process until another process calls WakeUp,
// or until d elapses if d >= 0 (d < 0 means wait indefinitely). It
// reports whether the process was woken explicitly (true) rather than
// timing out (false).
func (p *Proc) Wait(d time.Duration) bool {
	if d >= 0 {
		p.scheduleAt(p.k.now + d)
	}
	p.yield()
	woken := p.interrupted
	p.interrupted = false
	return woken
}

// WakeUp makes a blocked process runnable at the current virtual time.
// It must be called from another running process. Waking a process that
// is not blocked is a no-op.
func (p *Proc) WakeUp() {
	if p.state != ProcBlocked {
		return
	}
	p.cancelPending()
	p.interrupted = true
	p.scheduleAt(p.k.now)
}

// Interrupt is how the owner of a background transfer (Pipe.Transfer
// with Background) cancels it: it leaves the pipe at once and Transfer
// reports the service left. p is woken as by WakeUp, which is all that
// happens to a process that is not in a background transfer. It must be
// called from another running process.
func (p *Proc) Interrupt() {
	if p.x.pipe != nil && p.x.class == Background {
		p.x.cancel = true
	}
	p.WakeUp()
}

// RunResult summarizes a kernel run.
type RunResult struct {
	End      time.Duration // virtual time when Run returned
	Events   uint64        // events dispatched over the kernel's life
	Stranded []string      // names of live processes left blocked forever
}

// Run drives the simulation until no events remain or virtual time would
// exceed until (until <= 0 means run to quiescence). It returns a
// summary including the names of any processes left permanently blocked;
// such processes' carriers (one goroutine each) remain parked until the
// host process exits, so long-lived callers should treat a non-empty
// Stranded list as a bug. A panic in a process body, and a
// runtime.Goexit such as t.FailNow, surface in Run's caller.
func (k *Kernel) Run(until time.Duration) RunResult {
	if k.running {
		panic("sim: Kernel.Run called re-entrantly")
	}
	if k.failed != "" {
		panic(k.failed)
	}
	k.running = true
	defer func() { k.running = false }()
	for k.queue.Len() > 0 {
		if until > 0 && k.queue[0].at > until {
			k.now = until
			break
		}
		p := heap.Pop(&k.queue).(*Proc)
		if p.at > k.now {
			k.now = p.at
		}
		k.dispatched++
		k.cEvents.Add(1)
		depth := int64(k.queue.Len())
		k.gQueueDepth.Set(depth)
		k.gQueueMax.SetMax(depth)
		if p.c == nil {
			p.c = takeCarrier()
			p.c.proc = p
		}
		p.c.next()
		if p.state == ProcDone {
			p.c.release()
			p.c = nil
		}
	}
	res := RunResult{End: k.now, Events: k.dispatched}
	for _, p := range k.procs {
		if p.state == ProcBlocked && p.idx == unscheduled {
			res.Stranded = append(res.Stranded, p.name)
		}
	}
	sort.Strings(res.Stranded)
	return res
}

// Do runs fn as a process named name and drives the kernel to
// quiescence — everything already scheduled and everything fn sets off
// runs too. Processes left blocked for ever are an error.
func (k *Kernel) Do(name string, fn func(p *Proc)) error {
	k.Spawn(name, fn)
	if res := k.Run(0); len(res.Stranded) != 0 {
		return fmt.Errorf("sim: stranded processes: %v", res.Stranded)
	}
	return nil
}

// Live lists the names of the processes that have not finished, sorted:
// what a run stopped at its horizon left running.
func (k *Kernel) Live() []string {
	names := make([]string, 0, len(k.procs))
	for _, p := range k.procs {
		names = append(names, p.name)
	}
	sort.Strings(names)
	return names
}

// failure is the panic value of Failf: a message that already names its
// process and time.
type failure string

func (f failure) Error() string { return string(f) }

// Failf panics with a simulation-context message. Processes use it for
// invariant violations; like any panic in a process it fails the kernel
// and surfaces in Run's caller.
func (p *Proc) Failf(format string, args ...any) {
	panic(failure(fmt.Sprintf("sim: t=%v proc=%q: %s", p.k.now, p.name, fmt.Sprintf(format, args...))))
}

// Seconds converts a float number of seconds to a time.Duration,
// saturating instead of overflowing.
func Seconds(s float64) time.Duration {
	if s <= 0 {
		return 0
	}
	f := s * float64(time.Second)
	if f > math.MaxInt64 {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(f)
}
