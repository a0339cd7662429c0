package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"
)

// A foreground transfer holds the pipe to its deadline whatever wakes
// the process: Sleep is interruptible, a transfer is not.
func TestForegroundTransferHoldsToDeadline(t *testing.T) {
	k := NewKernel()
	pipe := NewPipe("disk", 1e6)
	var end time.Duration
	xfer := k.Spawn("xfer", func(p *Proc) {
		pipe.Transfer(p, 10e6, 1, Foreground)
		end = p.Now()
	})
	k.Spawn("waker", func(p *Proc) {
		p.Sleep(time.Second)
		xfer.WakeUp()
	})
	k.Run(0)
	if end != 10*time.Second {
		t.Errorf("10 s transfer woken at 1 s returned at %v", end)
	}
	if bytes, _, n := pipe.Stats(); bytes != 10e6 || n != 1 {
		t.Errorf("stats = (%d bytes, %d transfers), want (10e6, 1)", bytes, n)
	}
}

// Preemptive-resume on one pipe: the foreground transfer finishes in its
// own service time, the background one at the sum.
func TestBackgroundYieldsAndResumes(t *testing.T) {
	k := NewKernel()
	pipe := NewPipe("disk", 1e6)
	pipe.PerTransferOverhead = time.Second
	var bgEnd, fgEnd time.Duration
	bg := k.Spawn("bg", func(p *Proc) {
		if left := pipe.Transfer(p, 9e6, 1, Background); left != 0 {
			t.Errorf("background transfer left %v", left)
		}
		bgEnd = p.Now()
	})
	k.Spawn("fg", func(p *Proc) {
		p.Sleep(3 * time.Second)
		pipe.Transfer(p, 1e6, 1, Foreground)
		fgEnd = p.Now()
	})
	if res := k.Run(0); len(res.Stranded) != 0 {
		t.Fatalf("stranded: %v", res.Stranded)
	}
	if fgEnd != 5*time.Second {
		t.Errorf("foreground arriving at 3 s with 2 s of service done at %v", fgEnd)
	}
	if bgEnd != 12*time.Second {
		t.Errorf("background with 10 s of service, preempted for 2 s, done at %v", bgEnd)
	}
	if bg.Preemptions() != 1 {
		t.Errorf("preemptions = %d, want 1", bg.Preemptions())
	}
	if bytes, background, n := pipe.Stats(); bytes != 10e6 || background != 9e6 || n != 2 {
		t.Errorf("stats = (%d, %d background, %d transfers)", bytes, background, n)
	}
}

// Foreground takes a slot and then the pipe, background the pipe and
// then a slot, so a background transfer must give up the pipe it holds
// while it is still queued for a slot: preemptible on everything it
// holds from the moment it holds it. Otherwise f2 below, holding the
// only slot, and the background transfer, holding f2's pipe, wait for
// each other for ever.
func TestBackgroundPreemptedWhileQueuedForSlot(t *testing.T) {
	k := NewKernel()
	slots := NewResource("slots", 1)
	a, b := NewPipe("a", 1e6), NewPipe("b", 1e6)
	a.Slots, b.Slots = slots, slots
	var f2End, bgEnd time.Duration
	k.Spawn("f1", func(p *Proc) { a.Transfer(p, 10e6, 1, Foreground) })
	k.Spawn("bg", func(p *Proc) {
		b.Transfer(p, 1e6, 1, Background) // b's pipe, then queued for f1's slot
		bgEnd = p.Now()
	})
	k.Spawn("f2", func(p *Proc) {
		p.Sleep(time.Second)
		b.Transfer(p, 2e6, 1, Foreground)
		f2End = p.Now()
	})
	if res := k.Run(0); len(res.Stranded) != 0 {
		t.Fatalf("stranded: %v", res.Stranded)
	}
	if f2End != 12*time.Second {
		t.Errorf("f2, queued for the slot until 10 s with 2 s of service, done at %v", f2End)
	}
	if bgEnd != 13*time.Second {
		t.Errorf("background done at %v, want 13 s (after f2)", bgEnd)
	}
}

// The owner's interrupt, cancelling: a queued transfer leaves the queue
// with all its service left, one in service returns what it has not
// had, and the pipe counts only the bytes served.
func TestInterruptCancelsBackgroundTransfer(t *testing.T) {
	k := NewKernel()
	pipe := NewPipe("disk", 1e6)
	var queuedLeft, servedLeft, queuedAt, servedAt time.Duration
	k.Spawn("fg", func(p *Proc) { pipe.Transfer(p, 4e6, 1, Foreground) })
	queued := k.Spawn("queued", func(p *Proc) {
		queuedLeft = pipe.Transfer(p, 5e6, 1, Background)
		queuedAt = p.Now()
	})
	served := k.Spawn("served", func(p *Proc) {
		p.Sleep(10 * time.Second)
		servedLeft = pipe.Transfer(p, 8e6, 1, Background)
		servedAt = p.Now()
	})
	k.Spawn("owner", func(p *Proc) {
		p.Sleep(2 * time.Second)
		queued.Interrupt()
		if pipe.QueueLen() != 1 { // not unlinked until it runs, at this same instant
			t.Errorf("queue length %d at the interrupt", pipe.QueueLen())
		}
		p.Sleep(11 * time.Second)
		if pipe.QueueLen() != 0 {
			t.Errorf("queue length %d after the cancelled transfer left", pipe.QueueLen())
		}
		served.Interrupt()
	})
	if res := k.Run(0); len(res.Stranded) != 0 {
		t.Fatalf("stranded: %v", res.Stranded)
	}
	if queuedAt != 2*time.Second || queuedLeft != 5*time.Second {
		t.Errorf("queued transfer returned at %v with %v left, want 2s and 5s", queuedAt, queuedLeft)
	}
	if servedAt != 13*time.Second || servedLeft != 5*time.Second {
		t.Errorf("transfer in service returned at %v with %v left, want 13s and 5s", servedAt, servedLeft)
	}
	if bytes, background, n := pipe.Stats(); bytes != 7e6 || background != 3e6 || n != 1 {
		t.Errorf("stats = (%d, %d background, %d transfers), want (7e6, 3e6, 1)", bytes, background, n)
	}
}

// The wait queues are intrusive and a resource's holder list is reused:
// queueing, preemption and re-queueing allocate nothing.
func TestContendedTransfersDoNotAllocate(t *testing.T) {
	k := NewKernel()
	slots := NewResource("slots", 1)
	a, b := NewPipe("a", 1e6), NewPipe("b", 1e6)
	a.Slots, b.Slots = slots, slots
	done := false
	// Two foreground streams of 1 ms transfers every 3 ms, one on the
	// background transfer's pipe and one on its slot only; they queue
	// for the slot behind each other now and then.
	for i, pi := range []*Pipe{a, b} {
		k.Spawn("fg", func(p *Proc) {
			p.Sleep(time.Duration(i) * 500 * time.Microsecond)
			for !done {
				pi.Transfer(p, 1000, 1, Foreground)
				p.Sleep(2 * time.Millisecond)
			}
		})
	}
	var allocs float64
	bg := k.Spawn("bg", func(p *Proc) {
		allocs = testing.AllocsPerRun(1000, func() { a.Transfer(p, 5000, 1, Background) })
		done = true
	})
	k.Run(0)
	if allocs != 0 {
		t.Errorf("a contended background transfer allocates %v objects, want 0", allocs)
	}
	if bg.Preemptions() < 1000 {
		t.Errorf("%d preemptions over 1001 transfers: the transfers were not contended", bg.Preemptions())
	}
}

// classRun is what one random two-class program did.
type classRun struct {
	fgLog       string // every foreground step, in execution order
	preemptions int
	cancels     int
}

// classProgram runs a random program drawn from seed: foreground
// processes making transfers and raw acquisitions and waking each other,
// and, when background is set, background processes making background
// transfers over the same pipes with an owner that cancels and wakes
// them. Two pipes share a two-slot server, a third stands alone. Every
// process draws from its own generator, so deleting the background side
// changes no foreground draw. The kernel is stepped one timestamp at a
// time and the resources audited in between.
func classProgram(t *testing.T, seed int64, background bool) classRun {
	var run classRun
	var fgLog strings.Builder
	k := NewKernel()
	slots := NewResource("slots", 2)
	pipes := []*Pipe{NewPipe("a", 1e6), NewPipe("b", 2e6), NewPipe("c", 1e6)}
	pipes[0].Slots, pipes[1].Slots = slots, slots
	pipes[2].PerTransferOverhead = 3 * time.Millisecond
	r3 := NewResource("r3", 3)
	resources := []*Resource{slots, r3, pipes[0].res, pipes[1].res, pipes[2].res}
	root := NewRNG(seed)
	ms := func(g *RNG, n int) time.Duration { return time.Duration(g.Intn(n)) * time.Millisecond }

	var fgs []*Proc
	for i, n := 0, 2+root.Intn(6); i < n; i++ {
		g := NewRNG(seed*1000 + int64(i))
		fgs = append(fgs, k.Spawn(fmt.Sprintf("fg%d", i), func(p *Proc) {
			step := func(format string, args ...any) {
				fmt.Fprintf(&fgLog, "%d %s %s\n", p.Now(), p.Name(), fmt.Sprintf(format, args...))
			}
			for n := 3 + g.Intn(12); n > 0; n-- {
				switch op := g.Intn(10); {
				case op < 2:
					p.Sleep(ms(g, 40))
					step("slept")
				case op < 7:
					pi := pipes[g.Intn(len(pipes))]
					pi.Transfer(p, int64(g.Intn(30000)), 1+g.Float64(), Foreground)
					step("transferred on %s", pi.Name())
				case op < 9:
					n := 1 + g.Intn(3)
					r3.Acquire(p, n)
					p.Sleep(ms(g, 10))
					r3.Release(p, n)
					step("used %d of r3", n)
				default:
					q := fgs[g.Intn(len(fgs))]
					q.WakeUp()
					step("woke %s", q.Name())
				}
			}
			step("done")
		}))
	}

	// served[p] is the service p's background transfers were due: all of
	// it, less what a cancelled one reported left. held[p] is how long p
	// was seen in service.
	served := make(map[*Proc]time.Duration)
	held := make(map[*Proc]time.Duration)
	var bgs []*Proc
	if background {
		for i, n := 0, 1+root.Intn(5); i < n; i++ {
			g := NewRNG(seed*1000 + 500 + int64(i))
			bgs = append(bgs, k.Spawn(fmt.Sprintf("bg%d", i), func(p *Proc) {
				for n := 1 + g.Intn(8); n > 0; n-- {
					p.Sleep(ms(g, 30))
					pi := pipes[g.Intn(len(pipes))]
					size, scale := int64(g.Intn(60000)), 1+g.Float64()
					need := pi.PerTransferOverhead + Seconds(float64(size)/pi.BytesPerSecond*scale)
					left := pi.Transfer(p, size, scale, Background)
					if left > 0 {
						run.cancels++
					}
					served[p] += need - left
				}
			}))
		}
		g := NewRNG(seed*1000 + 900)
		k.Spawn("owner", func(p *Proc) {
			for n := g.Intn(12); n > 0; n-- {
				p.Sleep(ms(g, 60))
				q := bgs[g.Intn(len(bgs))]
				if g.Intn(4) < 2 {
					q.Interrupt()
				} else {
					q.WakeUp()
				}
			}
		})
	}

	audit := func() {
		for _, r := range resources {
			if r.inUse > r.capacity || r.inUse < len(r.holders) {
				t.Fatalf("seed %d t=%v: %s holds %d (%d in the background) of %d", seed, k.Now(), r.name, r.inUse, len(r.holders), r.capacity)
			}
			if r.fg.n > 0 && len(r.holders) > 0 && r != r3 {
				t.Fatalf("seed %d t=%v: %s serves the background with %d foreground requests queued", seed, k.Now(), r.name, r.fg.n)
			}
		}
	}
	var res RunResult
	for last := time.Duration(0); k.QueueDepth() > 0; {
		// Nothing changes between two timestamps: whoever holds a pipe,
		// and a slot where it needs one, in the background now is in
		// service until the next event.
		next := k.queue[0].at
		for _, pi := range pipes {
			for _, h := range pi.res.holders {
				if pi.Slots == nil || slices.Contains(pi.Slots.holders, h) {
					held[h] += next - last
				}
			}
		}
		last = next
		res = k.Run(max(next, 1)) // Run(0) would not stop
		audit()
	}

	if len(res.Stranded) != 0 {
		t.Fatalf("seed %d: stranded %v", seed, res.Stranded)
	}
	for _, r := range resources {
		if r.inUse != 0 || len(r.holders) != 0 || r.QueueLen() != 0 {
			t.Fatalf("seed %d: %s ends with %d in use, %d holders, %d queued", seed, r.name, r.inUse, len(r.holders), r.QueueLen())
		}
	}
	for _, p := range append(fgs, bgs...) {
		if p.State() != ProcDone {
			t.Fatalf("seed %d: %s did not finish", seed, p.Name())
		}
	}
	for _, p := range bgs {
		if held[p] != served[p] {
			t.Fatalf("seed %d: %s was in service for %v, its transfers' service sums to %v", seed, p.Name(), held[p], served[p])
		}
		run.preemptions += p.Preemptions()
	}
	run.fgLog = fgLog.String()
	return run
}

// TestTwoClassPrograms holds 300 random programs to the two-class
// discipline: capacity is never exceeded and the background is never
// served past a queued foreground request (the audit between events);
// a background transfer's time on its pipe sums to overhead +
// size/bandwidth over any number of preemptions; every foreground step
// happens at the time, and in the order, it does with the background
// processes deleted; at quiescence every transfer has finished and
// nothing is queued, held or stranded.
func TestTwoClassPrograms(t *testing.T) {
	var preemptions, cancels int
	for seed := int64(1); seed <= 300; seed++ {
		with := classProgram(t, seed, true)
		without := classProgram(t, seed, false)
		if with.fgLog != without.fgLog {
			w, wo := strings.Split(with.fgLog, "\n"), strings.Split(without.fgLog, "\n")
			for i := range w {
				if i >= len(wo) || w[i] != wo[i] {
					t.Fatalf("seed %d: foreground step %d is %q, without the background processes %q", seed, i, w[i], append(wo, "<none>")[min(i, len(wo))])
				}
			}
			t.Fatalf("seed %d: foreground log is %d steps, without the background processes %d", seed, len(w), len(wo))
		}
		preemptions += with.preemptions
		cancels += with.cancels
	}
	if preemptions < 300 || cancels < 100 {
		t.Errorf("the programs exercised %d preemptions and %d cancellations: too few to mean anything", preemptions, cancels)
	}
}
