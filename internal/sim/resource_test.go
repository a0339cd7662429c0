package sim

import (
	"slices"
	"testing"
	"time"
)

func TestResourceMutualExclusion(t *testing.T) {
	k := NewKernel()
	r := NewResource("mutex", 1)
	var maxConcurrent, concurrent int
	for i := 0; i < 5; i++ {
		k.Spawn("worker", func(p *Proc) {
			r.Acquire(p, 1)
			concurrent++
			if concurrent > maxConcurrent {
				maxConcurrent = concurrent
			}
			p.Sleep(time.Second)
			concurrent--
			r.Release(p, 1)
		})
	}
	res := k.Run(0)
	if maxConcurrent != 1 {
		t.Errorf("max concurrency %d, want 1", maxConcurrent)
	}
	if res.End != 5*time.Second {
		t.Errorf("serialized work ended at %v, want 5s", res.End)
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	k := NewKernel()
	r := NewResource("r", 1)
	var order []int
	for i := 0; i < 8; i++ {
		i := i
		k.Spawn("w", func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Millisecond) // stagger arrival
			r.Acquire(p, 1)
			order = append(order, i)
			p.Sleep(time.Second)
			r.Release(p, 1)
		})
	}
	k.Run(0)
	for i, got := range order {
		if got != i {
			t.Fatalf("service order %v, want arrival order", order)
		}
	}
}

func TestResourceCountingCapacity(t *testing.T) {
	k := NewKernel()
	r := NewResource("pool", 3)
	var maxConcurrent, concurrent int
	for i := 0; i < 9; i++ {
		k.Spawn("w", func(p *Proc) {
			r.Use(p, 1, time.Second)
		})
		k.Spawn("obs", func(p *Proc) {})
	}
	// Track concurrency via a wrapper.
	k2 := NewKernel()
	r2 := NewResource("pool", 3)
	for i := 0; i < 9; i++ {
		k2.Spawn("w", func(p *Proc) {
			r2.Acquire(p, 1)
			concurrent++
			if concurrent > maxConcurrent {
				maxConcurrent = concurrent
			}
			p.Sleep(time.Second)
			concurrent--
			r2.Release(p, 1)
		})
	}
	res := k2.Run(0)
	if maxConcurrent != 3 {
		t.Errorf("max concurrency %d, want 3", maxConcurrent)
	}
	if res.End != 3*time.Second {
		t.Errorf("9 jobs at capacity 3 ended at %v, want 3s", res.End)
	}
	_ = r
	k.Run(0)
}

func TestResourceMultiUnitAcquire(t *testing.T) {
	k := NewKernel()
	r := NewResource("r", 4)
	var bigAt, smallAt time.Duration
	k.Spawn("big", func(p *Proc) {
		r.Acquire(p, 4)
		p.Sleep(2 * time.Second)
		r.Release(p, 4)
		bigAt = p.Now()
	})
	k.Spawn("small", func(p *Proc) {
		p.Sleep(time.Millisecond)
		r.Acquire(p, 1)
		smallAt = p.Now()
		r.Release(p, 1)
	})
	k.Run(0)
	if smallAt != 2*time.Second {
		t.Errorf("small acquired at %v, want 2s (after big released)", smallAt)
	}
	if bigAt != 2*time.Second {
		t.Errorf("big done at %v", bigAt)
	}
}

func TestResourceCascadeWake(t *testing.T) {
	// One big holder releases; two waiting small requests should both
	// proceed at the same virtual time.
	k := NewKernel()
	r := NewResource("r", 2)
	var times []time.Duration
	k.Spawn("big", func(p *Proc) {
		r.Acquire(p, 2)
		p.Sleep(time.Second)
		r.Release(p, 2)
	})
	for i := 0; i < 2; i++ {
		k.Spawn("small", func(p *Proc) {
			p.Sleep(time.Millisecond)
			r.Acquire(p, 1)
			times = append(times, p.Now())
			p.Sleep(time.Second)
			r.Release(p, 1)
		})
	}
	k.Run(0)
	if len(times) != 2 || times[0] != time.Second || times[1] != time.Second {
		t.Errorf("small acquisitions at %v, want both at 1s", times)
	}
}

// Three equal transfers that arrive together share the pipe and finish
// together, at the time the three would take one after another.
func TestPipeSharesBandwidth(t *testing.T) {
	k := NewKernel()
	pipe := NewPipe("nfs", 10e6) // 10 MB/s
	var done []time.Duration
	for i := 0; i < 3; i++ {
		k.Spawn("xfer", func(p *Proc) {
			pipe.Transfer(p, 10e6, 1, Foreground) // 1 second each
			done = append(done, p.Now())
		})
	}
	k.Run(0)
	want := []time.Duration{3 * time.Second, 3 * time.Second, 3 * time.Second}
	if !slices.Equal(done, want) {
		t.Fatalf("transfer completions %v, want %v", done, want)
	}
	bytes, _, n := pipe.Stats()
	if bytes != 30e6 || n != 3 {
		t.Errorf("stats = (%d, %d), want (30e6, 3)", bytes, n)
	}
}

func TestPipeScaleSlowsTransfer(t *testing.T) {
	k := NewKernel()
	pipe := NewPipe("disk", 1e6)
	var end time.Duration
	k.Spawn("xfer", func(p *Proc) {
		pipe.Transfer(p, 1e6, 2.5, Foreground)
		end = p.Now()
	})
	k.Run(0)
	if end != 2500*time.Millisecond {
		t.Errorf("scaled transfer took %v, want 2.5s", end)
	}
}

func TestMailboxFIFO(t *testing.T) {
	k := NewKernel()
	mb := NewMailbox[int]("box")
	var got []int
	k.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			v, ok := mb.Get(p)
			if !ok {
				p.Failf("unexpected close")
			}
			got = append(got, v)
		}
	})
	k.Spawn("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(time.Second)
			mb.Put(p, i)
		}
	})
	k.Run(0)
	for i, v := range got {
		if v != i {
			t.Fatalf("got %v, want 0..4 in order", got)
		}
	}
}

func TestMailboxGetTimeout(t *testing.T) {
	k := NewKernel()
	mb := NewMailbox[string]("box")
	var ok bool
	var at time.Duration
	k.Spawn("consumer", func(p *Proc) {
		_, ok = mb.GetTimeout(p, 2*time.Second)
		at = p.Now()
	})
	k.Run(0)
	if ok {
		t.Error("GetTimeout returned ok on empty box")
	}
	if at != 2*time.Second {
		t.Errorf("timed out at %v, want 2s", at)
	}
}

func TestMailboxCloseWakesReaders(t *testing.T) {
	k := NewKernel()
	mb := NewMailbox[int]("box")
	var ok = true
	k.Spawn("consumer", func(p *Proc) {
		_, ok = mb.Get(p)
	})
	k.Spawn("closer", func(p *Proc) {
		p.Sleep(time.Second)
		mb.Close()
	})
	res := k.Run(0)
	if ok {
		t.Error("Get returned ok after close on empty box")
	}
	if len(res.Stranded) != 0 {
		t.Errorf("stranded processes: %v", res.Stranded)
	}
}

func TestMailboxDrainAfterClose(t *testing.T) {
	k := NewKernel()
	mb := NewMailbox[int]("box")
	var got []int
	k.Spawn("producer", func(p *Proc) {
		mb.Put(p, 1)
		mb.Put(p, 2)
		mb.Close()
	})
	k.Spawn("consumer", func(p *Proc) {
		p.Sleep(time.Second)
		for {
			v, ok := mb.Get(p)
			if !ok {
				return
			}
			got = append(got, v)
		}
	})
	k.Run(0)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("drained %v, want [1 2]", got)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
}

func TestLogNormalMeanIsCalibrated(t *testing.T) {
	g := NewRNG(1)
	const mean, n = 10.0, 200000
	var sum float64
	for i := 0; i < n; i++ {
		v := g.LogNormalMean(mean, 0.3)
		if v <= 0 {
			t.Fatalf("non-positive lognormal sample %v", v)
		}
		sum += v
	}
	got := sum / n
	if got < mean*0.97 || got > mean*1.03 {
		t.Errorf("empirical mean %.3f, want ~%.1f", got, mean)
	}
}
