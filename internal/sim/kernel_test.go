package sim

import (
	"testing"
	"time"
)

func TestSleepAdvancesVirtualTime(t *testing.T) {
	k := NewKernel()
	var woke time.Duration
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * time.Second)
		woke = p.Now()
	})
	res := k.Run(0)
	if woke != 5*time.Second {
		t.Errorf("woke at %v, want 5s", woke)
	}
	if res.End != 5*time.Second {
		t.Errorf("run ended at %v, want 5s", res.End)
	}
}

func TestEventsRunInTimestampOrder(t *testing.T) {
	k := NewKernel()
	var order []string
	for _, tc := range []struct {
		name string
		d    time.Duration
	}{
		{"c", 3 * time.Second},
		{"a", 1 * time.Second},
		{"b", 2 * time.Second},
	} {
		tc := tc
		k.Spawn(tc.name, func(p *Proc) {
			p.Sleep(tc.d)
			order = append(order, tc.name)
		})
	}
	k.Run(0)
	want := []string{"a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSameTimeEventsAreFIFO(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.Spawn("p", func(p *Proc) {
			p.Sleep(time.Second) // all wake at t=1s
			order = append(order, i)
		})
	}
	k.Run(0)
	for i, got := range order {
		if got != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestZeroSleepYields(t *testing.T) {
	k := NewKernel()
	var trace []string
	k.Spawn("first", func(p *Proc) {
		trace = append(trace, "first-before")
		p.Sleep(0)
		trace = append(trace, "first-after")
	})
	k.Spawn("second", func(p *Proc) {
		trace = append(trace, "second")
	})
	k.Run(0)
	want := []string{"first-before", "second", "first-after"}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestWaitTimeout(t *testing.T) {
	k := NewKernel()
	var woken bool
	var at time.Duration
	k.Spawn("waiter", func(p *Proc) {
		woken = p.Wait(3 * time.Second)
		at = p.Now()
	})
	k.Run(0)
	if woken {
		t.Error("Wait reported explicit wake, want timeout")
	}
	if at != 3*time.Second {
		t.Errorf("timed out at %v, want 3s", at)
	}
}

func TestWakeUpInterruptsWait(t *testing.T) {
	k := NewKernel()
	var woken bool
	var at time.Duration
	waiter := k.Spawn("waiter", func(p *Proc) {
		woken = p.Wait(100 * time.Second)
		at = p.Now()
	})
	k.Spawn("waker", func(p *Proc) {
		p.Sleep(2 * time.Second)
		waiter.WakeUp()
	})
	k.Run(0)
	if !woken {
		t.Error("Wait reported timeout, want explicit wake")
	}
	if at != 2*time.Second {
		t.Errorf("woken at %v, want 2s", at)
	}
}

func TestIndefiniteWaitWithoutWakeIsStranded(t *testing.T) {
	k := NewKernel()
	k.Spawn("stuck", func(p *Proc) {
		p.Wait(-1)
	})
	res := k.Run(0)
	if len(res.Stranded) != 1 || res.Stranded[0] != "stuck" {
		t.Errorf("Stranded = %v, want [stuck]", res.Stranded)
	}
}

func TestRunUntilStopsEarly(t *testing.T) {
	k := NewKernel()
	var ran bool
	k.Spawn("late", func(p *Proc) {
		p.Sleep(time.Hour)
		ran = true
	})
	res := k.Run(time.Minute)
	if ran {
		t.Error("process past the horizon ran")
	}
	if res.End != time.Minute {
		t.Errorf("End = %v, want 1m", res.End)
	}
}

func TestSpawnFromRunningProcess(t *testing.T) {
	k := NewKernel()
	var childAt time.Duration
	k.Spawn("parent", func(p *Proc) {
		p.Sleep(time.Second)
		p.Kernel().Spawn("child", func(c *Proc) {
			c.Sleep(time.Second)
			childAt = c.Now()
		})
		p.Sleep(10 * time.Second)
	})
	k.Run(0)
	if childAt != 2*time.Second {
		t.Errorf("child finished at %v, want 2s", childAt)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []time.Duration {
		k := NewKernel()
		g := NewRNG(42)
		var times []time.Duration
		pipe := NewPipe("disk", 1e6)
		for i := 0; i < 20; i++ {
			k.Spawn("xfer", func(p *Proc) {
				p.Sleep(Seconds(g.Exp(1.0)))
				pipe.Transfer(p, int64(g.Intn(1e6)), 1, Foreground)
				times = append(times, p.Now())
			})
		}
		k.Run(0)
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSecondsConversion(t *testing.T) {
	if Seconds(1.5) != 1500*time.Millisecond {
		t.Errorf("Seconds(1.5) = %v", Seconds(1.5))
	}
	if Seconds(-1) != 0 {
		t.Errorf("Seconds(-1) = %v, want 0", Seconds(-1))
	}
	if Seconds(1e300) <= 0 {
		t.Errorf("Seconds(1e300) overflowed to %v", Seconds(1e300))
	}
}
