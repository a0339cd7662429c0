package storage

import (
	"errors"
	"testing"
	"time"

	"vmplants/internal/sim"
)

// run executes body as a single simulation process and returns the
// virtual time it took.
func run(t *testing.T, body func(p *sim.Proc)) time.Duration {
	t.Helper()
	k := sim.NewKernel()
	k.Spawn("test", body)
	res := k.Run(0)
	if len(res.Stranded) != 0 {
		t.Fatalf("stranded: %v", res.Stranded)
	}
	return res.End
}

func TestWriteAndReadCostTime(t *testing.T) {
	dev := NewDevice("disk", 10e6, 0)
	v := NewVolume("v", dev)
	d := run(t, func(p *sim.Proc) {
		if err := v.Write(p, "f", 20e6, 1); err != nil {
			t.Error(err)
		}
		if _, err := v.Read(p, "f", 1); err != nil {
			t.Error(err)
		}
	})
	if d != 4*time.Second { // 2s write + 2s read
		t.Errorf("elapsed %v, want 4s", d)
	}
	size, err := v.Stat("f")
	if err != nil || size != 20e6 {
		t.Errorf("Stat = %d, %v", size, err)
	}
}

func TestLinkIsCheapAndResolves(t *testing.T) {
	dev := NewDevice("disk", 10e6, 0)
	v := NewVolume("v", dev)
	d := run(t, func(p *sim.Proc) {
		v.Write(p, "base", 100e6, 1)
		if err := v.Link(p, "base", "clone"); err != nil {
			t.Error(err)
		}
	})
	// 10s for the write; the link adds only LinkLatency.
	if d >= 10*time.Second+time.Second {
		t.Errorf("elapsed %v, link not cheap", d)
	}
	if !v.IsLink("clone") || v.IsLink("base") {
		t.Error("IsLink wrong")
	}
	size, err := v.Stat("clone")
	if err != nil || size != 100e6 {
		t.Errorf("link Stat = %d, %v", size, err)
	}
}

func TestLinkToMissingSource(t *testing.T) {
	v := NewVolume("v", NewDevice("d", 1e6, 0))
	run(t, func(p *sim.Proc) {
		if err := v.Link(p, "ghost", "l"); err == nil {
			t.Error("dangling link source accepted")
		}
	})
}

func TestCopyToBottleneckRate(t *testing.T) {
	fast := NewVolume("fast", NewDevice("fastdev", 100e6, 0))
	slow := NewVolume("slow", NewDevice("slowdev", 10e6, 0))
	d := run(t, func(p *sim.Proc) {
		fast.WriteMeta("src", 50e6)
		if _, err := fast.CopyTo(p, "src", slow, "dst", 1, sim.Foreground); err != nil {
			t.Error(err)
		}
	})
	// Bottleneck is the 10 MB/s destination: 5 s.
	if d != 5*time.Second {
		t.Errorf("copy took %v, want 5s", d)
	}
	if size, _ := slow.Stat("dst"); size != 50e6 {
		t.Error("copy did not create destination entry")
	}
}

func TestCopyScaleSlowsDown(t *testing.T) {
	a := NewVolume("a", NewDevice("ad", 10e6, 0))
	b := NewVolume("b", NewDevice("bd", 10e6, 0))
	d := run(t, func(p *sim.Proc) {
		a.WriteMeta("src", 10e6)
		a.CopyTo(p, "src", b, "dst", 2, sim.Foreground)
	})
	if d != 2*time.Second {
		t.Errorf("scaled copy took %v, want 2s", d)
	}
}

func TestServerSlotsQueueTransfers(t *testing.T) {
	server := NewServer("nfs", 100e6, 0, 1) // one stream at a time
	v := NewVolume("w", server)
	var done []time.Duration
	k := sim.NewKernel()
	v.WriteMeta("f", 100e6) // 1s at full rate
	for i := 0; i < 3; i++ {
		k.Spawn("reader", func(p *sim.Proc) {
			if _, err := v.Read(p, "f", 1); err != nil {
				t.Error(err)
			}
			done = append(done, p.Now())
		})
	}
	k.Run(0)
	want := []time.Duration{time.Second, 2 * time.Second, 3 * time.Second}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completions %v, want %v", done, want)
		}
	}
}

func TestViewSharesNamespaceChargesOwnDevice(t *testing.T) {
	serverDev := NewDevice("server", 100e6, 0)
	server := NewVolume("warehouse", serverDev)
	mountDev := NewDevice("mount", 10e6, 0)
	view := server.ViewOn(mountDev)

	d := run(t, func(p *sim.Proc) {
		server.WriteMeta("golden", 20e6)
		if !view.Exists("golden") {
			t.Error("view does not see server file")
		}
		view.Read(p, "golden", 1)
	})
	if d != 2*time.Second { // at the mount's 10 MB/s, not the server's 100
		t.Errorf("view read took %v, want 2s", d)
	}
	// Mutation through the view visible at the server.
	view.WriteMeta("x", 1)
	if !server.Exists("x") {
		t.Error("server does not see view write")
	}
}

func TestDeleteAndErrors(t *testing.T) {
	v := NewVolume("v", NewDevice("d", 1e6, 0))
	v.WriteMeta("f", 10)
	if err := v.Delete("f"); err != nil {
		t.Error(err)
	}
	if err := v.Delete("f"); err == nil {
		t.Error("double delete accepted")
	}
	if _, err := v.Stat("f"); err == nil {
		t.Error("Stat of deleted file succeeded")
	}
	run(t, func(p *sim.Proc) {
		if _, err := v.Read(p, "ghost", 1); err == nil {
			t.Error("read of missing file succeeded")
		}
		if err := v.Write(p, "neg", -1, 1); err == nil {
			t.Error("negative size accepted")
		}
	})
}

func TestDanglingLinkStat(t *testing.T) {
	v := NewVolume("v", NewDevice("d", 1e6, 0))
	v.WriteMeta("src", 10)
	run(t, func(p *sim.Proc) {
		v.Link(p, "src", "l")
	})
	v.Delete("src")
	if _, err := v.Stat("l"); err == nil {
		t.Error("dangling link Stat succeeded")
	}
}

func TestUsedBytesIgnoresLinks(t *testing.T) {
	v := NewVolume("v", NewDevice("d", 1e9, 0))
	run(t, func(p *sim.Proc) {
		v.Write(p, "a", 100, 1)
		v.Write(p, "b", 50, 1)
		v.Link(p, "a", "l")
	})
	if v.UsedBytes() != 150 {
		t.Errorf("UsedBytes = %d", v.UsedBytes())
	}
	if got := v.List(); len(got) != 3 || got[0] != "a" || got[2] != "l" {
		t.Errorf("List = %v", got)
	}
}

func TestPerTransferOverhead(t *testing.T) {
	dev := NewDevice("d", 1e6, 500*time.Millisecond)
	v := NewVolume("v", dev)
	d := run(t, func(p *sim.Proc) {
		v.Write(p, "tiny", 0, 1)
	})
	if d != 500*time.Millisecond {
		t.Errorf("zero-byte write took %v, want overhead only", d)
	}
}

// Three mounts of one two-stream server, as cluster.NewTestbed wires
// them: a foreground copy that arrives in the middle of a background
// one finishes in its own service time — on the same mount, and on
// another mount when the background copies hold every stream slot — and
// the background copies finish at the sum of what was served ahead of
// them, no slot or mount having idled meanwhile.
func TestForegroundCopyPreemptsBackgroundCopy(t *testing.T) {
	server := NewServer("nfs", 20e6, 0, 2)
	wh := NewVolume("w", server)
	wh.WriteMeta("extent", 100e6) // 10 s over a 10 MB/s mount
	wh.WriteMeta("mem", 20e6)     // 2 s
	mount := func(name string) *Volume {
		dev := NewDevice(name, 10e6, 0)
		dev.ShareSlots(server)
		return wh.ViewOn(dev)
	}
	m1, m2, m3 := mount("m1"), mount("m2"), mount("m3")
	local := NewVolume("local", NewDevice("scsi", 100e6, 0))

	k := sim.NewKernel()
	done := make(map[string]time.Duration)
	copyAt := func(name string, at time.Duration, m *Volume, src string, class sim.Class) {
		k.Spawn(name, func(p *sim.Proc) {
			p.Sleep(at)
			if _, err := m.CopyTo(p, src, local, name, 1, class); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			done[name] = p.Now()
		})
	}
	copyAt("bg1", 0, m1, "extent", sim.Background)
	copyAt("bg2", 0, m2, "extent", sim.Background)
	// At 3 s the foreground copy takes bg1's mount, and the slot of the
	// more recent holder, bg2 — which at once takes the slot bg1 gives
	// up with its mount, and carries on.
	copyAt("fg-same-mount", 3*time.Second, m1, "mem", sim.Foreground)
	// At 6 s both slots are held again, bg1's (back in service since
	// 5 s) the more recently.
	copyAt("fg-other-mount", 6*time.Second, m3, "mem", sim.Foreground)
	if res := k.Run(0); len(res.Stranded) != 0 {
		t.Fatalf("stranded: %v", res.Stranded)
	}
	for name, want := range map[string]time.Duration{
		"fg-same-mount":  5 * time.Second,
		"fg-other-mount": 8 * time.Second,
		"bg1":            14 * time.Second, // 10 s of service, preempted 3–5 s and 6–8 s
		"bg2":            10 * time.Second,
	} {
		if done[name] != want {
			t.Errorf("%s done at %v, want %v", name, done[name], want)
		}
	}
	if bytes, background, _ := m1.Device().Stats(); bytes != 120e6 || background != 100e6 {
		t.Errorf("m1 served %d bytes, %d in the background; want 120e6 and 100e6", bytes, background)
	}
}

// A background copy its owner cancels writes nothing, says so, and
// reports the service it had left.
func TestInterruptedBackgroundCopy(t *testing.T) {
	src := NewVolume("src", NewDevice("srcdev", 10e6, time.Second))
	dst := NewVolume("dst", NewDevice("dstdev", 100e6, 0))
	src.WriteMeta("f", 100e6)
	k := sim.NewKernel()
	var err error
	var left time.Duration
	copier := k.Spawn("copier", func(p *sim.Proc) {
		_, err = src.CopyTo(p, "f", dst, "f", 1, sim.Background)
		left = src.Device().Transfer(p, 100e6, 1, sim.Background)
	})
	k.Spawn("owner", func(p *sim.Proc) {
		p.Sleep(4 * time.Second)
		copier.Interrupt()
		p.Sleep(4 * time.Second)
		copier.Interrupt()
	})
	if res := k.Run(0); len(res.Stranded) != 0 || res.End != 8*time.Second {
		t.Fatalf("ended at %v, stranded %v", res.End, res.Stranded)
	}
	if !errors.Is(err, ErrInterrupted) {
		t.Errorf("cancelled copy returned %v", err)
	}
	if dst.Exists("f") {
		t.Error("cancelled copy wrote its destination")
	}
	if left != 7*time.Second {
		t.Errorf("transfer cancelled after 4 of its 11 s reported %v left", left)
	}
	// 1 s of overhead, then 3 s at 10 MB/s, twice.
	if bytes, background, n := src.Device().Stats(); bytes != 60e6 || background != 60e6 || n != 0 {
		t.Errorf("stats = (%d, %d background, %d transfers), want (60e6, 60e6, 0)", bytes, background, n)
	}
}
