package sim

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"vmplants/internal/telemetry"
)

// warm leaves at least one parked carrier on the free list.
func warm() {
	k := NewKernel()
	k.Spawn("warm", func(p *Proc) {})
	k.Run(0)
}

func TestReusedCarrierStartsClean(t *testing.T) {
	k := NewKernel()
	waiter := k.Spawn("first", func(p *Proc) {
		p.SetTrace(telemetry.SpanContext{TraceID: 7, Span: 9})
		if !p.Wait(time.Hour) {
			t.Error("first: Wait timed out, want a WakeUp")
		}
	})
	k.Spawn("waker", func(p *Proc) { waiter.WakeUp() })
	k.Run(0)

	idle := Idle()
	if idle == 0 {
		t.Fatal("no carrier parked after two processes finished")
	}
	k2 := NewKernel()
	ran := false
	p2 := k2.Spawn("second", func(p *Proc) {
		ran = true
		if p.State() != ProcRunning {
			t.Errorf("state in body = %d, want ProcRunning", p.State())
		}
		if p.interrupted {
			t.Error("interrupted set on a fresh process")
		}
		if p.Trace() != (telemetry.SpanContext{}) {
			t.Errorf("Trace() = %+v, want zero", p.Trace())
		}
		if got := Idle(); got != idle-1 {
			t.Errorf("Idle() in body = %d, want %d: the process did not take a parked carrier", got, idle-1)
		}
	})
	if p2.State() != ProcReady {
		t.Errorf("state after Spawn = %d, want ProcReady", p2.State())
	}
	if got := Idle(); got != idle {
		t.Errorf("Idle() after Spawn = %d, want %d: a carrier is taken at first dispatch, not at Spawn", got, idle)
	}
	k2.Run(0)
	if !ran || p2.State() != ProcDone {
		t.Errorf("ran = %v, state = %d", ran, p2.State())
	}
	if got := Idle(); got != idle {
		t.Errorf("Idle() after Run = %d, want %d", got, idle)
	}
}

func TestFinishedProcessesLeaveNoGoroutines(t *testing.T) {
	start := runtime.NumGoroutine() - Idle()
	k := NewKernel()
	for round := 0; round < 10000; round++ {
		k.Spawn("p", func(p *Proc) { p.Sleep(time.Millisecond) })
		k.Run(0)
	}
	// More live processes at once than the free list holds: the excess
	// carriers are stopped when their bodies return.
	for i := 0; i < 3*maxIdleCarriers; i++ {
		k.Spawn("p", func(p *Proc) { p.Sleep(time.Second) })
	}
	k.Run(0)
	if got := Idle(); got != maxIdleCarriers {
		t.Errorf("Idle() = %d, want the cap %d", got, maxIdleCarriers)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > start+maxIdleCarriers && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > start+maxIdleCarriers {
		t.Errorf("%d goroutines, want at most %d + %d", got, start, maxIdleCarriers)
	}
}

// Run under -race: two kernels on two host goroutines take carriers the
// other one released.
func TestKernelsShareCarriersAcrossGoroutines(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := NewKernel()
			for round := 0; round < 2000; round++ {
				sum := 0
				for i := 1; i <= 3; i++ {
					k.Spawn("p", func(p *Proc) {
						p.Sleep(time.Duration(i) * time.Millisecond)
						sum += i
					})
				}
				if k.Run(0); sum != 6 {
					t.Errorf("round %d: sum = %d, want 6", round, sum)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestEventsDoNotAllocate(t *testing.T) {
	k := NewKernel()
	r := NewResource("r", 1)
	var sleep, use float64
	k.Spawn("p", func(p *Proc) {
		sleep = testing.AllocsPerRun(1000, func() { p.Sleep(time.Millisecond) })
		use = testing.AllocsPerRun(1000, func() { r.Use(p, 1, time.Millisecond) })
	})
	k.Run(0)
	if sleep != 0 {
		t.Errorf("Sleep allocates %v objects, want 0", sleep)
	}
	if use != 0 {
		t.Errorf("uncontended Resource.Use allocates %v objects, want 0", use)
	}
	warm()
	body := func(p *Proc) {}
	if spawn := testing.AllocsPerRun(1000, func() { k.Spawn("p", body); k.Run(0) }); spawn > 2 {
		t.Errorf("warm Spawn+Run allocates %v objects, want at most 2", spawn)
	}
}

func mustPanic(t *testing.T, what string, fn func()) (value any) {
	t.Helper()
	defer func() {
		if value = recover(); value == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
	return nil
}

func TestOnePendingWakeUpPerProcess(t *testing.T) {
	k := NewKernel()
	p := k.Spawn("p", func(p *Proc) {})
	if v := mustPanic(t, "scheduleAt on a scheduled process", func() { p.scheduleAt(time.Second) }); v != nil &&
		!strings.Contains(fmt.Sprint(v), `"p" scheduled twice`) {
		t.Errorf("panic value %q", v)
	}
	p.WakeUp() // ProcReady: a no-op, not a second wake-up
	if k.QueueDepth() != 1 || p.interrupted {
		t.Errorf("WakeUp of a ProcReady process: queue depth %d, interrupted %v", k.QueueDepth(), p.interrupted)
	}
	if res := k.Run(0); res.Events != 1 {
		t.Errorf("Events = %d, want 1", res.Events)
	}
}

func TestStrandedKernelRunsAgain(t *testing.T) {
	k := NewKernel()
	var woken bool
	stuck := k.Spawn("stuck", func(p *Proc) { woken = p.Wait(-1) })
	if res := k.Run(0); len(res.Stranded) != 1 || res.Stranded[0] != "stuck" {
		t.Fatalf("Stranded = %v, want [stuck]", res.Stranded)
	}
	k.Spawn("rescuer", func(p *Proc) { stuck.WakeUp() })
	if res := k.Run(0); len(res.Stranded) != 0 || !woken {
		t.Errorf("second Run: Stranded = %v, woken = %v", res.Stranded, woken)
	}
}

func TestProcessPanicFailsTheKernel(t *testing.T) {
	for _, tc := range []struct {
		name  string
		body  func(p *Proc)
		want  string
		frame string // of the process's own stack, which the coroutine switch drops
	}{
		{"panic", func(p *Proc) { p.Sleep(2 * time.Second); explode() },
			`sim: t=2s proc="bad": panic: boom` + "\n", "sim.explode"},
		{"Failf", func(p *Proc) { p.Sleep(2 * time.Second); p.Failf("no %s", "disk") },
			`sim: t=2s proc="bad": no disk` + "\n", "sim.(*Proc).Failf"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel()
			k.Spawn("bystander", func(p *Proc) { p.Wait(-1) })
			k.Spawn("bad", tc.body)
			first := fmt.Sprint(mustPanic(t, "Run", func() { k.Run(0) }))
			if !strings.HasPrefix(first, tc.want) {
				t.Errorf("panic value %q, want prefix %q", first, tc.want)
			}
			if !strings.Contains(first, tc.frame) {
				t.Errorf("panic value carries no stack of the process:\n%s", first)
			}
			if k.running {
				t.Error("k.running still set after the panic")
			}
			if len(k.procs) != 1 {
				t.Errorf("%d processes registered, want only the bystander", len(k.procs))
			}
			for what, fn := range map[string]func(){
				"Spawn on a failed kernel": func() { k.Spawn("next", func(p *Proc) {}) },
				"Run on a failed kernel":   func() { k.Run(0) },
			} {
				if again := mustPanic(t, what, fn); again != first {
					t.Errorf("%s panics with %q, want the first failure", what, again)
				}
			}
		})
	}
}

func explode() { panic("boom") }

// t.FailNow is runtime.Goexit after marking the test failed. From inside
// a process it must end the goroutine that called Run, not park it.
func TestGoexitInProcessEndsRunsCaller(t *testing.T) {
	k := NewKernel()
	returned := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		k.Spawn("p", func(p *Proc) {
			p.Sleep(time.Second)
			runtime.Goexit()
		})
		k.Run(0)
		returned = true
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run's caller still parked 5 s after Goexit in a process")
	}
	if returned {
		t.Error("Run returned after Goexit in a process")
	}
	if k.running {
		t.Error("k.running still set")
	}
}
