package sim

import (
	"fmt"
	"math"
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

// On one pipe the background transfer is served only while no foreground
// one is: the foreground transfer finishes in its own service time, the
// background one at the sum.
func TestBackgroundYieldsAndResumes(t *testing.T) {
	k := NewKernel()
	pipe := NewPipe("disk", 1e6)
	pipe.PerTransferOverhead = time.Second
	var bgEnd, fgEnd time.Duration
	k.Spawn("bg", func(p *Proc) {
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
		t.Errorf("background with 10 s of service, paused for 2 s, done at %v", bgEnd)
	}
	if bytes, background, n := pipe.Stats(); bytes != 10e6 || background != 9e6 || n != 2 {
		t.Errorf("stats = (%d, %d background, %d transfers)", bytes, background, n)
	}
}

// Two pipes behind one server as fast as either: foreground transfers on
// both share the server equally, and a background transfer alone on its
// pipe gets nothing while foreground work elsewhere takes all of the
// server.
func TestBackgroundStarvedBySaturatedServer(t *testing.T) {
	k := NewKernel()
	srv := NewPipe("server", 1e6)
	a, b := NewPipe("a", 1e6), NewPipe("b", 1e6)
	a.Via, b.Via = srv, srv
	var f1End, f2End, bgEnd time.Duration
	k.Spawn("f1", func(p *Proc) {
		a.Transfer(p, 10e6, 1, Foreground)
		f1End = p.Now()
	})
	k.Spawn("bg", func(p *Proc) {
		b.Transfer(p, 1e6, 1, Background)
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
	for name, c := range map[string]struct{ got, want time.Duration }{
		"f2": {f2End, 5 * time.Second},  // 2 s of service at half rate from 1 s
		"f1": {f1End, 12 * time.Second}, // 10 s of service, at half rate for 4 s
		"bg": {bgEnd, 13 * time.Second}, // its 1 s once f1 leaves the server idle
	} {
		if c.got != c.want {
			t.Errorf("%s done at %v, want %v", name, c.got, c.want)
		}
	}
}

// n foreground transfers on their own paths to a server four paths
// wide: below four they leave the background a path's worth, from four
// on they spend the server — whatever rounding does to n equal shares —
// and the background transfer waits until they finish.
func TestSaturatedServerLeavesBackgroundNothing(t *testing.T) {
	for n := 1; n <= 12; n++ {
		k := NewKernel()
		srv := NewPipe("server", 44e6)
		path := func() *Pipe {
			pi := NewPipe("mount", 11e6)
			pi.Via = srv
			return pi
		}
		for range n {
			pi := path()
			k.Spawn("fg", func(p *Proc) { pi.Transfer(p, 110e6, 1, Foreground) })
		}
		var bgEnd time.Duration
		bg := path()
		k.Spawn("bg", func(p *Proc) {
			p.Sleep(time.Second)
			bg.Transfer(p, 11e6, 1, Background)
			bgEnd = p.Now()
		})
		k.Run(0)
		want := 2 * time.Second
		if n >= 4 {
			want = time.Duration(n)*2500*time.Millisecond + time.Second
		}
		if bgEnd != want {
			t.Errorf("beside %d foreground transfers the background one ended at %v, want %v", n, bgEnd, want)
		}
	}
}

// The owner's interrupt, cancelling: a transfer paused beside a
// foreground one leaves with all its service left, one in service
// returns what it has not had, and the pipe counts only the bytes served.
func TestInterruptCancelsBackgroundTransfer(t *testing.T) {
	k := NewKernel()
	pipe := NewPipe("disk", 1e6)
	var pausedLeft, servedLeft, pausedAt, servedAt time.Duration
	k.Spawn("fg", func(p *Proc) { pipe.Transfer(p, 4e6, 1, Foreground) })
	paused := k.Spawn("paused", func(p *Proc) {
		pausedLeft = pipe.Transfer(p, 5e6, 1, Background)
		pausedAt = p.Now()
	})
	served := k.Spawn("served", func(p *Proc) {
		p.Sleep(10 * time.Second)
		servedLeft = pipe.Transfer(p, 8e6, 1, Background)
		servedAt = p.Now()
	})
	k.Spawn("owner", func(p *Proc) {
		p.Sleep(2 * time.Second)
		paused.Interrupt()
		if pipe.bg.n != 1 { // not unlinked until it runs, at this same instant
			t.Errorf("%d background transfers at the interrupt", pipe.bg.n)
		}
		p.Sleep(11 * time.Second)
		if pipe.bg.n != 1 {
			t.Errorf("%d background transfers after the cancelled one left", pipe.bg.n)
		}
		served.Interrupt()
	})
	if res := k.Run(0); len(res.Stranded) != 0 {
		t.Fatalf("stranded: %v", res.Stranded)
	}
	if pausedAt != 2*time.Second || pausedLeft != 5*time.Second {
		t.Errorf("paused transfer returned at %v with %v left, want 2s and 5s", pausedAt, pausedLeft)
	}
	if servedAt != 13*time.Second || servedLeft != 5*time.Second {
		t.Errorf("transfer in service returned at %v with %v left, want 13s and 5s", servedAt, servedLeft)
	}
	if bytes, background, n := pipe.Stats(); bytes != 7e6 || background != 3e6 || n != 1 {
		t.Errorf("stats = (%d, %d background, %d transfers), want (7e6, 3e6, 1)", bytes, background, n)
	}
}

// The transfer lists are intrusive and a server's water-fill scratch is
// reused: arrivals, departures and the re-rates they cause allocate
// nothing.
func TestContendedTransfersDoNotAllocate(t *testing.T) {
	k := NewKernel()
	srv := NewPipe("server", 1e6)
	a, b := NewPipe("a", 1e6), NewPipe("b", 1e6)
	a.Via, b.Via = srv, srv
	done := false
	// Two foreground streams of 1 ms transfers every 3 ms, one on the
	// background transfer's pipe and one on another path to its server;
	// each pauses it, and they share the server now and then.
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
	var took time.Duration
	k.Spawn("bg", func(p *Proc) {
		allocs = testing.AllocsPerRun(1000, func() { a.Transfer(p, 5000, 1, Background) })
		took = p.Now()
		done = true
	})
	k.Run(0)
	if allocs != 0 {
		t.Errorf("a contended background transfer allocates %v objects, want 0", allocs)
	}
	if alone := 1001 * 5 * time.Millisecond; took < alone*3/2 {
		t.Errorf("1001 transfers of 5 ms took %v: the transfers were not contended", took)
	}
}

// classRun is what one random two-class program did.
type classRun struct {
	fgLog   string // every foreground step, in execution order
	paused  int    // intervals in which a background transfer had no rate
	shared  int    // intervals in which a server served several transfers
	cancels int
}

// classProgram runs a random program drawn from seed: foreground
// processes making transfers and raw acquisitions and waking each other,
// and, when background is set, background processes making background
// transfers over the same pipes with an owner that cancels and wakes
// them. Two pipes are paths to a server that is slower than both
// together and takes transfers of its own; a third pipe stands alone.
// Every process draws from its own generator, so deleting the background
// side changes no foreground draw. The kernel is stepped one timestamp at
// a time: in between, rates are audited and each transfer's service is
// integrated.
func classProgram(t *testing.T, seed int64, background bool) classRun {
	var run classRun
	var fgLog strings.Builder
	k := NewKernel()
	srv := NewPipe("server", 2e6)
	a, b, c := NewPipe("a", 1e6), NewPipe("b", 2e6), NewPipe("c", 1e6)
	a.Via, b.Via = srv, srv
	c.PerTransferOverhead = 3 * time.Millisecond
	pipes := []*Pipe{a, b, c, srv}
	servers := map[*Pipe][]*Pipe{srv: {a, b, srv}, c: {c}}
	r3 := NewResource("r3", 3)
	root := NewRNG(seed)
	ms := func(g *RNG, n int) time.Duration { return time.Duration(g.Intn(n)) * time.Millisecond }

	// due[p] is the service p's transfers were due: all of it, less what
	// a cancelled one reported left; got[p] is the service integrated
	// over its rates. transfers[p] counts them, each worth up to 1 ns of
	// rounding.
	due := make(map[*Proc]time.Duration)
	got := make(map[*Proc]float64)
	transfers := make(map[*Proc]int)
	transfer := func(p *Proc, pi *Pipe, size int64, scale float64, class Class) time.Duration {
		need := pi.PerTransferOverhead + Seconds(float64(size)/pi.BytesPerSecond*scale)
		left := pi.Transfer(p, size, scale, class)
		due[p] += need - left
		transfers[p]++
		return left
	}

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
					transfer(p, pi, int64(g.Intn(30000)), 1+g.Float64(), Foreground)
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

	var bgs []*Proc
	if background {
		for i, n := 0, 1+root.Intn(5); i < n; i++ {
			g := NewRNG(seed*1000 + 500 + int64(i))
			bgs = append(bgs, k.Spawn(fmt.Sprintf("bg%d", i), func(p *Proc) {
				for n := 1 + g.Intn(8); n > 0; n-- {
					p.Sleep(ms(g, 30))
					pi := pipes[g.Intn(len(pipes))]
					if transfer(p, pi, int64(g.Intn(60000)), 1+g.Float64(), Background) > 0 {
						run.cancels++
					}
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

	// audit checks the rates between two events: no pipe or server is
	// given more than its bandwidth, a server with any transfer in
	// progress gives all it can (its own bandwidth, or every busy pipe
	// under it its full speed), and no background transfer moves on a
	// pipe with a foreground one.
	const eps = 1e-9
	audit := func() {
		for s, under := range servers {
			var flow, can float64
			moving := 0
			for _, pi := range under {
				var f float64
				for _, q := range []*waitQueue{&pi.fg, &pi.bg} {
					for p := q.head; p != nil; p = p.qnext {
						f += p.x.rate * pi.BytesPerSecond
						if p.x.rate > 0 {
							moving++
						}
						if q == &pi.bg && p.x.rate == 0 {
							run.paused++
						}
					}
				}
				if f > pi.BytesPerSecond*(1+eps) {
					t.Fatalf("seed %d t=%v: %s serves %.0f B/s of %.0f", seed, k.Now(), pi.Name(), f, pi.BytesPerSecond)
				}
				for p := pi.bg.head; p != nil && pi.fg.n > 0; p = p.qnext {
					if p.x.rate != 0 {
						t.Fatalf("seed %d t=%v: %s serves %s's background transfer beside a foreground one", seed, k.Now(), pi.Name(), p.Name())
					}
				}
				if pi.fg.n+pi.bg.n > 0 {
					can += pi.BytesPerSecond
				}
				flow += f
			}
			if can = min(can, s.BytesPerSecond); math.Abs(flow-can) > eps*s.BytesPerSecond {
				t.Fatalf("seed %d t=%v: server %s serves %.0f B/s, could serve %.0f", seed, k.Now(), s.Name(), flow, can)
			}
			if moving > 1 {
				run.shared++
			}
		}
	}
	var res RunResult
	for last := time.Duration(0); k.QueueDepth() > 0; {
		// Nothing changes between two timestamps: every transfer in
		// progress is served at its rate until the next event.
		next := k.queue[0].at
		for _, pi := range pipes {
			for _, q := range []*waitQueue{&pi.fg, &pi.bg} {
				for p := q.head; p != nil; p = p.qnext {
					got[p] += p.x.rate * float64(next-last)
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
	for _, pi := range pipes {
		if pi.fg.n+pi.bg.n != 0 || len(pi.busy) != 0 {
			t.Fatalf("seed %d: %s ends with %d transfers and %d busy paths", seed, pi.Name(), pi.fg.n+pi.bg.n, len(pi.busy))
		}
	}
	if r3.InUse() != 0 || r3.QueueLen() != 0 {
		t.Fatalf("seed %d: r3 ends with %d in use, %d queued", seed, r3.InUse(), r3.QueueLen())
	}
	for _, p := range append(fgs, bgs...) {
		if p.State() != ProcDone {
			t.Fatalf("seed %d: %s did not finish", seed, p.Name())
		}
		if d := math.Abs(got[p] - float64(due[p])); d > float64(transfers[p]) {
			t.Fatalf("seed %d: %s was served %.1f ns over %d transfers, due %v", seed, p.Name(), got[p], transfers[p], due[p])
		}
	}
	run.fgLog = fgLog.String()
	return run
}

// TestTwoClassPrograms holds 300 random programs to the rate discipline:
// no pipe or server serves past its bandwidth, a busy server serves all
// it can, and background transfers get nothing beside a foreground one
// on their pipe (the audit between events); each transfer's integrated
// service equals its work, or the work less what a cancelled one
// reported left, to the nanosecond; every foreground step happens at the
// time, and in the order, it does with the background processes deleted;
// at quiescence nothing is flowing, queued or stranded.
func TestTwoClassPrograms(t *testing.T) {
	var paused, shared, cancels int
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
		paused += with.paused
		shared += with.shared
		cancels += with.cancels
	}
	if paused < 300 || shared < 300 || cancels < 100 {
		t.Errorf("the programs exercised %d paused and %d shared intervals and %d cancellations: too few to mean anything", paused, shared, cancels)
	}
}
