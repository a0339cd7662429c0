package sim

import (
	"math"
	"slices"
	"time"
)

// Class is the service class of a transfer on a Pipe.
type Class uint8

const (
	// Foreground is work something waits for. Its rate is decided by
	// foreground transfers alone.
	Foreground Class = iota
	// Background is work nothing waits for: it shares only the bandwidth
	// foreground transfers leave, and gets none on a pipe with a
	// foreground transfer.
	Background
)

// Resource is a counting semaphore under virtual time, served strictly
// first-come-first-served in event order. A Resource with capacity 1 is
// a fair mutex. The wait queue is an intrusive list through Proc, so
// queueing allocates nothing.
type Resource struct {
	name     string
	capacity int
	inUse    int
	q        waitQueue
}

// waitQueue is a FIFO of processes, linked through Proc.qnext: those
// blocked on a resource, or those with a transfer in progress on a pipe.
// A process is in at most one, so one link is enough.
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

// InUse reports how many units are currently held.
func (r *Resource) InUse() int { return r.inUse }

// Capacity reports the resource's total units.
func (r *Resource) Capacity() int { return r.capacity }

// QueueLen reports how many processes are waiting.
func (r *Resource) QueueLen() int { return r.q.n }

// Acquire blocks the calling process until n units are available and
// then holds them. n must be between 1 and the resource capacity.
func (r *Resource) Acquire(p *Proc, n int) {
	if n < 1 || n > r.capacity {
		p.Failf("acquire %d of resource %q with capacity %d", n, r.name, r.capacity)
	}
	if r.q.n == 0 && r.inUse+n <= r.capacity {
		r.inUse += n
		return
	}
	p.qn = n
	r.q.push(p)
	for {
		p.Wait(-1)
		// Woken by Release; check if we are at the head and fit.
		if r.q.head == p && r.inUse+n <= r.capacity {
			r.q.remove(p)
			r.inUse += n
			// Cascade: the next waiter may also fit now (e.g. several
			// small requests after a big release).
			r.wakeHead()
			return
		}
	}
}

// Release returns n units and wakes the head waiter if it can proceed.
func (r *Resource) Release(p *Proc, n int) {
	if n < 1 || n > r.inUse {
		p.Failf("release %d of resource %q with %d in use", n, r.name, r.inUse)
	}
	r.inUse -= n
	r.wakeHead()
}

func (r *Resource) wakeHead() {
	if h := r.q.head; h != nil && r.inUse+h.qn <= r.capacity {
		h.WakeUp()
	}
}

// Use acquires n units, sleeps for d, and releases: the common pattern
// for modeling service time at a station.
func (r *Resource) Use(p *Proc, n int, d time.Duration) {
	r.Acquire(p, n)
	p.Sleep(d)
	r.Release(p, n)
}

// Pipe models a bandwidth-limited channel (a disk, a NIC, an NFS mount
// or server) under processor sharing: every transfer in progress is
// served at once, each at a rate — a fraction of its own pipe's full
// speed — fixed between two arrivals or departures. A pipe may be a path
// to a server (Via), whose bandwidth it shares with the server's other
// paths and the server's own transfers.
//
// Rates are max-min fair (water-filling) over a server and the pipes
// under it. Pipes with a foreground transfer come first: each gets the
// least of its own bandwidth and an equal share of the server's, split
// equally among its foreground transfers. Pipes with only background
// transfers share what is left the same way; a background transfer on a
// pipe with a foreground one gets nothing. So foreground rates, and with
// them every foreground completion time, are the same whatever the
// background does, and a lone transfer is served at full speed: it takes
// PerTransferOverhead + size/BytesPerSecond, as it would on an idle pipe.
//
// Each arrival and departure re-rates the server's transfers. A transfer
// whose rate changes is credited the work it was served at the old rate
// and its completion event is moved; no event is dispatched until a
// transfer completes. The rate state lives on the Proc (one transfer per
// process) and the water-fill scratch on the server, so re-rating
// allocates nothing.
type Pipe struct {
	name string
	// Via, when set, is the server this pipe is a path to: transfers on
	// the pipe also take their bandwidth from Via's, which every pipe
	// naming it and Via's own transfers share. A server has no Via.
	Via *Pipe
	// BytesPerSecond is the pipe's throughput. It may be changed between
	// transfers to model degraded devices.
	BytesPerSecond float64
	// PerTransferOverhead is a fixed setup latency added to every
	// transfer (protocol round trips, open/close). It is served like the
	// bytes are, at the transfer's rate.
	PerTransferOverhead time.Duration

	fg, bg waitQueue // transfers in progress, in arrival order
	share  float64   // this pipe's bandwidth in the current water-fill
	// On a server: the pipes under it (itself included) with a transfer
	// in progress, in the order they became busy, and water-fill scratch.
	busy, fill []*Pipe

	totalBytes      int64
	backgroundBytes int64
	transfers       int64
}

// NewPipe creates a pipe with the given throughput in bytes per second.
func NewPipe(name string, bytesPerSecond float64) *Pipe {
	if bytesPerSecond <= 0 {
		panic("sim: pipe bandwidth must be positive")
	}
	return &Pipe{name: name, BytesPerSecond: bytesPerSecond}
}

// Name returns the pipe's name.
func (pi *Pipe) Name() string { return pi.name }

// server is the pipe whose bandwidth pi's transfers share.
func (pi *Pipe) server() *Pipe {
	if pi.Via != nil {
		return pi.Via
	}
	return pi
}

// transfer is a process's Pipe.Transfer in progress.
type transfer struct {
	pipe   *Pipe // nil outside a transfer
	class  Class
	cancel bool    // the owner interrupted a background transfer
	rate   float64 // the fraction of the pipe's full speed being served
	left   float64 // work left at since, in nanoseconds at full speed
	since  time.Duration
}

// end is when the transfer completes at its current rate (> 0). A rate
// so small that the completion lies past the clock's range is parked
// far ahead; a later re-rate moves it.
func (x *transfer) end() time.Duration {
	return x.since + time.Duration(min(math.Ceil(x.left/x.rate), math.MaxInt64/2))
}

// advance credits the work served at the current rate up to now.
func (x *transfer) advance(now time.Duration) {
	x.left = max(0, x.left-x.rate*float64(now-x.since))
	x.since = now
}

// Transfer moves size bytes through the pipe, blocking the calling
// process until it has been served its work: the fixed overhead plus the
// transmission time, at the rate the pipe's sharing gives it. The scale
// factor multiplies the transmission time (>= 1 models a slowed device,
// e.g. a host under memory pressure); scale <= 0 is treated as 1.
//
// A wake-up meant for something else changes nothing. The owner of a
// background transfer can cancel it with Proc.Interrupt: it leaves the
// pipe at once and Transfer returns the service time left, zero in every
// other case.
func (pi *Pipe) Transfer(p *Proc, size int64, scale float64, class Class) time.Duration {
	if size < 0 {
		p.Failf("negative transfer size %d on pipe %q", size, pi.Name())
	}
	if scale <= 0 {
		scale = 1
	}
	need := pi.PerTransferOverhead + Seconds(float64(size)/pi.BytesPerSecond*scale)
	x := &p.x
	*x = transfer{pipe: pi, class: class, left: float64(need), since: p.Now()}
	srv := pi.server()
	if pi.fg.n+pi.bg.n == 0 {
		srv.busy = append(srv.busy, pi)
	}
	pi.queue(class).push(p)
	srv.rerate(p.Now())
	var left time.Duration
	for x.rate == 0 || p.Now() < x.end() {
		if x.cancel {
			x.advance(p.Now())
			left = time.Duration(math.Ceil(x.left))
			break
		}
		// Re-rating never schedules the running process, and a wake-up
		// meant for something else dropped the completion event: the
		// process has none pending here.
		if x.rate > 0 {
			p.scheduleAt(x.end())
		}
		p.yield()
		p.interrupted = false
	}
	pi.queue(class).remove(p)
	if pi.fg.n+pi.bg.n == 0 {
		i := slices.Index(srv.busy, pi)
		srv.busy = slices.Delete(srv.busy, i, i+1)
	}
	x.pipe = nil
	srv.rerate(p.Now())
	if left > 0 {
		// Count the overhead as served first: it carries no bytes.
		moved := int64(math.Max(0, (need-left-pi.PerTransferOverhead).Seconds()) * pi.BytesPerSecond / scale)
		pi.backgroundBytes += moved
		pi.totalBytes += moved
		return left
	}
	if class == Background {
		pi.backgroundBytes += size
	}
	pi.totalBytes += size
	pi.transfers++
	return 0
}

func (pi *Pipe) queue(c Class) *waitQueue {
	if c == Foreground {
		return &pi.fg
	}
	return &pi.bg
}

// rerate water-fills the server's bandwidth over its busy pipes,
// foreground first, and gives each transfer its rate.
func (srv *Pipe) rerate(now time.Duration) {
	left := srv.BytesPerSecond
	for _, class := range []Class{Foreground, Background} {
		srv.fill = srv.fill[:0]
		for _, pi := range srv.busy {
			if (class == Foreground) == (pi.fg.n > 0) {
				srv.fill = append(srv.fill, pi)
			}
		}
		left = max(0, left-waterFill(srv.fill, left))
		for _, pi := range srv.fill {
			q := pi.queue(class)
			pi.setRates(q, pi.share/pi.BytesPerSecond/float64(q.n), now)
			if class == Foreground {
				pi.setRates(&pi.bg, 0, now)
			}
		}
	}
}

// waterFill gives each pipe in ps its max-min fair share of capacity —
// the least of its bandwidth and a level that spends the capacity or
// leaves every pipe at its bandwidth — and returns what it gave. A share
// depends only on the pipe's bandwidth and the bandwidths in ps, not on
// their order.
func waterFill(ps []*Pipe, capacity float64) float64 {
	// Insertion sort by bandwidth: ps is short and this allocates nothing.
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j].BytesPerSecond < ps[j-1].BytesPerSecond; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
	level := capacity / float64(len(ps))
	for i, pi := range ps {
		if pi.BytesPerSecond > level || i == len(ps)-1 {
			break
		}
		capacity -= pi.BytesPerSecond
		level = capacity / float64(len(ps)-i-1)
	}
	var given float64
	for _, pi := range ps {
		pi.share = min(pi.BytesPerSecond, level)
		given += pi.share
	}
	return given
}

// setRates gives every transfer in q the rate r. One whose rate changes
// is credited what it was served so far and its completion is moved,
// unless its process is the one running or has a wake-up pending: that
// one schedules its completion itself before it blocks.
func (pi *Pipe) setRates(q *waitQueue, r float64, now time.Duration) {
	for p := q.head; p != nil; p = p.qnext {
		x := &p.x
		if x.rate == r {
			continue
		}
		x.advance(now)
		x.rate = r
		if p.interrupted || p.state == ProcRunning {
			continue
		}
		p.cancelPending()
		if r > 0 {
			p.scheduleAt(x.end())
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
