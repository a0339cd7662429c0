package sim

import (
	"math"
	"time"
)

// Class is the service class of a request on a Resource or a Pipe.
// There is no switch between disciplines: every resource serves both
// classes the one way described at Resource.
type Class uint8

const (
	// Foreground is work something waits for. It is served FIFO among
	// itself and never waits for background work.
	Foreground Class = iota
	// Background is work nothing waits for: served only while no
	// foreground request is queued, and preempted by one that needs
	// its units.
	Background
)

// Resource is a counting semaphore with two service classes under
// virtual time. A Resource with capacity 1 is a fair mutex.
//
// Foreground requests (Acquire) are served strictly first-come-first-
// served in event order, and see only each other: a program whose
// background processes are deleted runs its foreground processes at
// exactly the same times. Background requests (Pipe.Transfer with
// Background) are granted FIFO among themselves, only while no
// foreground request is queued. A foreground request that does not fit
// beside the background holders takes their units back, most recent
// holder first; the preempted process is woken, keeps the service it
// already received and queues again for the remainder
// (preemptive-resume).
//
// Both queues are intrusive lists through Proc, so queueing and
// re-queueing allocate nothing.
type Resource struct {
	name     string
	capacity int
	inUse    int // units held, both classes
	fg, bg   waitQueue
	// holders each hold one unit in the background, oldest first: the
	// units a foreground request may take back.
	holders []*Proc
}

// waitQueue is a FIFO of blocked processes, linked through Proc.qnext.
// A blocked process waits on one resource, so one link is enough.
type waitQueue struct {
	head, tail *Proc
	n          int
}

func (q *waitQueue) push(p *Proc) {
	if q.tail == nil {
		q.head = p
	} else {
		q.tail.qnext = p
	}
	q.tail = p
	q.n++
}

func (q *waitQueue) pushFront(p *Proc) {
	p.qnext = q.head
	q.head = p
	if q.tail == nil {
		q.tail = p
	}
	q.n++
}

func (q *waitQueue) pop() {
	q.remove(q.head)
}

// remove unlinks p, which must be queued.
func (q *waitQueue) remove(p *Proc) {
	var prev *Proc
	for c := q.head; c != p; c = c.qnext {
		prev = c
	}
	if prev == nil {
		q.head = p.qnext
	} else {
		prev.qnext = p.qnext
	}
	if q.tail == p {
		q.tail = prev
	}
	p.qnext = nil
	q.n--
}

// NewResource creates a resource with the given capacity (>= 1).
func NewResource(name string, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{name: name, capacity: capacity}
}

// Name returns the resource's name.
func (r *Resource) Name() string { return r.name }

// InUse reports how many units are currently held, in either class.
func (r *Resource) InUse() int { return r.inUse }

// Capacity reports the resource's total units.
func (r *Resource) Capacity() int { return r.capacity }

// QueueLen reports how many processes are waiting, in either class.
func (r *Resource) QueueLen() int { return r.fg.n + r.bg.n }

// fits reports whether n more foreground units fit beside the
// foreground units already held; background holders do not count.
func (r *Resource) fits(n int) bool { return r.inUse-len(r.holders)+n <= r.capacity }

// Acquire blocks the calling process until n units are available to the
// foreground and then holds them. n must be between 1 and the resource
// capacity.
func (r *Resource) Acquire(p *Proc, n int) {
	if n < 1 || n > r.capacity {
		p.Failf("acquire %d of resource %q with capacity %d", n, r.name, r.capacity)
	}
	if r.fg.n == 0 && r.fits(n) {
		r.take(n)
		return
	}
	p.qn = n
	r.fg.push(p)
	for {
		p.Wait(-1)
		// Woken by Release; check if we are at the head and fit.
		if r.fg.head == p && r.fits(n) {
			r.fg.pop()
			r.take(n)
			// Cascade: the next waiter may also fit now (e.g. several
			// small requests after a big release).
			r.wakeHead()
			return
		}
	}
}

// take holds n foreground units that fit, taking back as many
// background holders' units as it needs, the most recent holder first.
func (r *Resource) take(n int) {
	for r.inUse+n > r.capacity {
		h := r.holders[len(r.holders)-1]
		r.drop(len(r.holders) - 1)
		h.preemptions++
		h.stopBackground(bgPreempted)
	}
	r.inUse += n
}

// drop forgets background holder i and its unit.
func (r *Resource) drop(i int) {
	last := len(r.holders) - 1
	copy(r.holders[i:], r.holders[i+1:])
	r.holders[last] = nil
	r.holders = r.holders[:last]
	r.inUse--
}

// Release returns n foreground units and wakes the head waiter if it
// can proceed.
func (r *Resource) Release(p *Proc, n int) {
	if held := r.inUse - len(r.holders); n < 1 || n > held {
		p.Failf("release %d of resource %q with %d in use", n, r.name, held)
	}
	r.inUse -= n
	r.wakeHead()
}

// wakeHead wakes the foreground head if it fits, or, with no foreground
// request queued, the background head.
func (r *Resource) wakeHead() {
	if h := r.fg.head; h != nil {
		if r.fits(h.qn) {
			h.WakeUp()
		}
		return
	}
	r.wakeBackground()
}

// free reports whether a background request can be granted a unit now.
func (r *Resource) free() bool { return r.fg.n == 0 && r.inUse < r.capacity }

// wakeBackground wakes the background head if it can be granted. It
// never touches a foreground waiter: waking one whose wake-up is
// already pending would move it behind later foreground events.
func (r *Resource) wakeBackground() {
	if r.bg.head != nil && r.free() {
		r.bg.head.WakeUp()
	}
}

// acquireBackground blocks p, which is in a background transfer, until
// a unit is free with no foreground request queued, and holds it
// preemptibly. It reports false, holding and queued nowhere, once the
// transfer is stopped (preempted on another resource, or interrupted by
// its owner). front queues p ahead of the other background waiters: a
// preempted transfer keeps its turn.
func (r *Resource) acquireBackground(p *Proc, front bool) bool {
	if !r.free() || (r.bg.n > 0 && !front) {
		if front {
			r.bg.pushFront(p)
		} else {
			r.bg.push(p)
		}
		for {
			p.Wait(-1)
			if p.bg != bgRunning {
				r.bg.remove(p)
				r.wakeBackground()
				return false
			}
			if r.bg.head == p && r.free() {
				r.bg.pop()
				break
			}
		}
	}
	r.inUse++
	r.holders = append(r.holders, p)
	r.wakeBackground()
	return true
}

// releaseBackground returns the unit p holds in the background; a
// preempted holder holds nothing and nothing happens.
func (r *Resource) releaseBackground(p *Proc) {
	for i, h := range r.holders {
		if h == p {
			r.drop(i)
			r.wakeBackground()
			return
		}
	}
}

// Use acquires n units, sleeps for d, and releases: the common pattern
// for modeling service time at a station.
func (r *Resource) Use(p *Proc, n int, d time.Duration) {
	r.Acquire(p, n)
	p.Sleep(d)
	r.Release(p, n)
}

// Pipe models a bandwidth-limited transfer channel (a disk, a NIC, an
// NFS server's aggregate throughput). One transfer is served at a time:
// a transfer of size bytes occupies the pipe for size/bandwidth of
// virtual time. Foreground transfers are served FIFO; background
// transfers are served while no foreground transfer waits and give the
// pipe back to one that arrives (see Resource). Serialization (rather
// than processor sharing) matches how contention appears as queueing
// delay; it keeps the model deterministic and is a good approximation
// for the mostly-sequential workloads in the VMPlants experiments.
type Pipe struct {
	res *Resource
	// Slots, when set, bounds the concurrent streams of the server this
	// pipe is a path to: a transfer is in service while it holds one
	// slot and the pipe. Several pipes may share one.
	Slots *Resource
	// BytesPerSecond is the pipe's throughput. It may be changed between
	// transfers to model degraded devices.
	BytesPerSecond float64
	// PerTransferOverhead is a fixed setup latency added to every
	// transfer (protocol round trips, open/close).
	PerTransferOverhead time.Duration

	totalBytes      int64
	backgroundBytes int64
	transfers       int64
}

// NewPipe creates a pipe with the given throughput in bytes per second.
func NewPipe(name string, bytesPerSecond float64) *Pipe {
	if bytesPerSecond <= 0 {
		panic("sim: pipe bandwidth must be positive")
	}
	return &Pipe{res: NewResource(name, 1), BytesPerSecond: bytesPerSecond}
}

// Name returns the pipe's name.
func (pi *Pipe) Name() string { return pi.res.Name() }

// Transfer moves size bytes through the pipe, blocking the calling
// process for queueing plus service time: the fixed overhead, then the
// transmission time. The scale factor multiplies the transmission time
// (>= 1 models a slowed device, e.g. a host under memory pressure);
// scale <= 0 is treated as 1.
//
// A foreground transfer takes a slot, then the pipe, and holds both for
// its whole service time whatever wakes the process. A background
// transfer takes the pipe, then a slot — it never sits on a slot of the
// shared server that it cannot use yet — both in the background class,
// so it is preemptible on everything it holds from the moment it holds
// it, in service or still queued for the other: when a foreground
// request takes back its pipe or its slot it gives up both, keeps the
// service it has had and queues again for the rest. Its owner can
// cancel it with Proc.Interrupt: it leaves the queues at once and
// Transfer returns the service time left (zero in every other case).
func (pi *Pipe) Transfer(p *Proc, size int64, scale float64, class Class) time.Duration {
	if size < 0 {
		p.Failf("negative transfer size %d on pipe %q", size, pi.Name())
	}
	if scale <= 0 {
		scale = 1
	}
	need := pi.PerTransferOverhead + Seconds(float64(size)/pi.BytesPerSecond*scale)
	if class == Foreground {
		pi.foreground(p, need)
	} else {
		if left := pi.background(p, need); left > 0 {
			// The overhead is served first and carries no bytes.
			moved := int64(math.Max(0, (need-left-pi.PerTransferOverhead).Seconds()) * pi.BytesPerSecond / scale)
			pi.backgroundBytes += moved
			pi.totalBytes += moved
			return left
		}
		pi.backgroundBytes += size
	}
	pi.totalBytes += size
	pi.transfers++
	return 0
}

// foreground holds a slot and the pipe for d, to the deadline whatever
// wakes the process meanwhile.
func (pi *Pipe) foreground(p *Proc, d time.Duration) {
	if pi.Slots != nil {
		pi.Slots.Acquire(p, 1)
	}
	pi.res.Acquire(p, 1)
	for deadline := p.Now() + d; ; {
		p.Sleep(deadline - p.Now())
		if p.Now() >= deadline {
			break
		}
	}
	pi.res.Release(p, 1)
	if pi.Slots != nil {
		pi.Slots.Release(p, 1)
	}
}

// background serves need of service time in the background class. It
// returns what is left of it when the owner cancelled the transfer.
func (pi *Pipe) background(p *Proc, need time.Duration) time.Duration {
	left := need
	for again := false; ; again = true {
		p.bg = bgRunning
		if pi.res.acquireBackground(p, again) && (pi.Slots == nil || pi.Slots.acquireBackground(p, again)) {
			// In service until it is all had or the transfer is stopped;
			// a wake-up meant for something else changes nothing.
			for left > 0 && p.bg == bgRunning {
				start := p.Now()
				p.Wait(left)
				left -= p.Now() - start
			}
		}
		if pi.Slots != nil {
			pi.Slots.releaseBackground(p)
		}
		pi.res.releaseBackground(p)
		why := p.bg
		p.bg = bgNone
		if left == 0 || why == bgCancelled {
			return left
		}
	}
}

// Stats reports the cumulative bytes the pipe served, how many of them
// in the background class, and the number of transfers completed. A
// transfer cancelled part-way counts the bytes it was served, and is
// not a completed transfer.
func (pi *Pipe) Stats() (bytes, background, transfers int64) {
	return pi.totalBytes, pi.backgroundBytes, pi.transfers
}

// QueueLen reports how many transfers are waiting for the pipe.
func (pi *Pipe) QueueLen() int { return pi.res.QueueLen() }
