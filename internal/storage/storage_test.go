package storage

import (
	"errors"
	"slices"
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

// A server time-shares its bandwidth: three equal transfers that would
// take 1 s each alone finish together at 3 s, and a 4 KB read issued
// beside a 256 MB copy on the same mount is not queued behind it — it
// takes at most twice its time alone.
func TestServerSharesBandwidth(t *testing.T) {
	server := NewDevice("nfs", 100e6, 0)
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
	if want := []time.Duration{3 * time.Second, 3 * time.Second, 3 * time.Second}; !slices.Equal(done, want) {
		t.Fatalf("completions %v, want %v", done, want)
	}
	if bytes, _, n := server.Stats(); bytes != 300e6 || n != 3 {
		t.Errorf("server stats = (%d bytes, %d transfers), want (300e6, 3)", bytes, n)
	}

	nfs := NewDevice("nfs", 44e6, 120*time.Millisecond)
	mountDev := NewDevice("mount", 11e6, 120*time.Millisecond)
	mountDev.ShareServer(nfs)
	mount := NewVolume("w", nfs).ViewOn(mountDev)
	mount.WriteMeta("mem", 256<<20)
	mount.WriteMeta("block", 4096)
	read := func(k *sim.Kernel) time.Duration {
		var took time.Duration
		k.Spawn("fault", func(p *sim.Proc) {
			p.Sleep(time.Second)
			start := p.Now()
			if _, err := mount.Read(p, "block", 1); err != nil {
				t.Error(err)
			}
			took = p.Now() - start
		})
		k.Run(0)
		return took
	}
	alone := read(sim.NewKernel())
	k = sim.NewKernel()
	k.Spawn("copy", func(p *sim.Proc) { mount.Read(p, "mem", 1) })
	if beside := read(k); beside > 2*alone {
		t.Errorf("a 4 KB read beside a 256 MB copy took %v, %v alone", beside, alone)
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

// Three mounts of one server as fast as two of them, as
// cluster.NewTestbed wires them: a foreground copy finishes in its own
// service time whether it lands on a background copy's mount (which it
// pauses) or on a third mount (whose share of the server the background
// copies give up), and the background copies finish in the bandwidth
// the foreground leaves — the server never idles while one could use it.
func TestForegroundCopyPreemptsBackgroundCopy(t *testing.T) {
	server := NewDevice("nfs", 20e6, 0)
	wh := NewVolume("w", server)
	wh.WriteMeta("extent", 100e6) // 10 s over a 10 MB/s mount
	wh.WriteMeta("mem", 20e6)     // 2 s
	mount := func(name string) *Volume {
		dev := NewDevice(name, 10e6, 0)
		dev.ShareServer(server)
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
	// From 3 s to 5 s the foreground copy has m1: bg1 pauses, bg2 keeps
	// the other half of the server.
	copyAt("fg-same-mount", 3*time.Second, m1, "mem", sim.Foreground)
	// From 6 s to 8 s it has half the server: bg1 and bg2 split the rest.
	copyAt("fg-other-mount", 6*time.Second, m3, "mem", sim.Foreground)
	if res := k.Run(0); len(res.Stranded) != 0 {
		t.Fatalf("stranded: %v", res.Stranded)
	}
	for name, want := range map[string]time.Duration{
		"fg-same-mount":  5 * time.Second,
		"fg-other-mount": 8 * time.Second,
		"bg2":            11 * time.Second, // 6 s at full speed, 2 s at half, the last 3 s at full
		"bg1":            13 * time.Second, // 10 s of service, none 3–5 s, half 6–8 s
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
