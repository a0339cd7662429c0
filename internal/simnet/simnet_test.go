package simnet

import (
	"sync"
	"testing"
)

func TestMACStringRoundTrip(t *testing.T) {
	pool := NewMACPool()
	m := pool.Next()
	back, err := ParseMAC(m.String())
	if err != nil || back != m {
		t.Errorf("round trip %v → %v, %v", m, back, err)
	}
	if _, err := ParseMAC("not-a-mac"); err == nil {
		t.Error("bad MAC accepted")
	}
}

func TestMACPoolUnique(t *testing.T) {
	pool := NewMACPool()
	seen := map[MAC]bool{}
	for i := 0; i < 1000; i++ {
		m := pool.Next()
		if seen[m] {
			t.Fatalf("duplicate MAC %v", m)
		}
		seen[m] = true
		if m[0]&1 == 1 {
			t.Fatalf("multicast bit set on %v", m)
		}
	}
}

func TestUnicastAfterLearning(t *testing.T) {
	sw := NewSwitch("vmnet0")
	a := sw.Attach("a")
	b := sw.Attach("b")
	c := sw.Attach("c")
	macA, macB := MAC{1}, MAC{2}

	// First frame from A floods (B unknown).
	a.Send(Frame{Src: macA, Dst: macB, EtherType: EtherTypeTest, Payload: []byte("hi")})
	if b.Pending() != 1 || c.Pending() != 1 {
		t.Fatalf("flood delivery: b=%d c=%d", b.Pending(), c.Pending())
	}
	b.Poll()
	c.Poll()

	// Reply from B: A is learned, so unicast.
	b.Send(Frame{Src: macB, Dst: macA, EtherType: EtherTypeTest})
	if a.Pending() != 1 || c.Pending() != 0 {
		t.Errorf("unicast delivery: a=%d c=%d", a.Pending(), c.Pending())
	}
	// Now B is learned too: A→B unicast, C sees nothing.
	a.Send(Frame{Src: macA, Dst: macB, EtherType: EtherTypeTest})
	if b.Pending() != 1 || c.Pending() != 0 {
		t.Errorf("post-learning: b=%d c=%d", b.Pending(), c.Pending())
	}
	frames, floods := sw.Stats()
	if frames != 3 || floods != 1 {
		t.Errorf("stats = %d frames, %d floods", frames, floods)
	}
}

func TestBroadcastFloods(t *testing.T) {
	sw := NewSwitch("vmnet0")
	a := sw.Attach("a")
	b := sw.Attach("b")
	c := sw.Attach("c")
	a.Send(Frame{Src: MAC{1}, Dst: Broadcast, EtherType: EtherTypeARP})
	if b.Pending() != 1 || c.Pending() != 1 || a.Pending() != 0 {
		t.Errorf("broadcast: a=%d b=%d c=%d", a.Pending(), b.Pending(), c.Pending())
	}
}

func TestNoEchoToSender(t *testing.T) {
	sw := NewSwitch("s")
	a := sw.Attach("a")
	a.Send(Frame{Src: MAC{1}, Dst: MAC{1}, EtherType: EtherTypeTest})
	if a.Pending() != 0 {
		t.Error("frame echoed to sender")
	}
}

func TestHandlerReceivesInsteadOfInbox(t *testing.T) {
	sw := NewSwitch("s")
	a := sw.Attach("a")
	b := sw.Attach("b")
	var got []Frame
	b.SetHandler(func(f Frame) { got = append(got, f) })
	a.Send(Frame{Src: MAC{1}, Dst: Broadcast, Payload: []byte("x")})
	if len(got) != 1 || b.Pending() != 0 {
		t.Errorf("handler got %d frames, inbox %d", len(got), b.Pending())
	}
}

func TestPayloadIsolation(t *testing.T) {
	sw := NewSwitch("s")
	a := sw.Attach("a")
	b := sw.Attach("b")
	buf := []byte("mutable")
	a.Send(Frame{Src: MAC{1}, Dst: Broadcast, Payload: buf})
	buf[0] = 'X'
	f, ok := b.Poll()
	if !ok || string(f.Payload) != "mutable" {
		t.Errorf("payload aliased: %q", f.Payload)
	}
}

func TestClosedPortDetaches(t *testing.T) {
	sw := NewSwitch("s")
	a := sw.Attach("a")
	b := sw.Attach("b")
	b.Close()
	if sw.Ports() != 1 {
		t.Errorf("ports = %d", sw.Ports())
	}
	if err := b.Send(Frame{Src: MAC{2}, Dst: Broadcast}); err == nil {
		t.Error("send on closed port succeeded")
	}
	// Deliveries to closed port dropped silently.
	a.Send(Frame{Src: MAC{1}, Dst: Broadcast})
	if b.Pending() != 0 {
		t.Error("closed port received frame")
	}
}

func TestFDBForgetsClosedPort(t *testing.T) {
	sw := NewSwitch("s")
	a := sw.Attach("a")
	b := sw.Attach("b")
	c := sw.Attach("c")
	b.Send(Frame{Src: MAC{2}, Dst: Broadcast}) // learn MAC{2}@b
	a.Poll()
	c.Poll()
	b.Close()
	// Frame to MAC{2} must flood (b gone), reaching c.
	a.Send(Frame{Src: MAC{1}, Dst: MAC{2}})
	if c.Pending() != 1 {
		t.Error("stale FDB entry used after port close")
	}
}

func TestNetPoolDomainExclusivity(t *testing.T) {
	p := NewNetPool("vmnet", 2)
	n1, alloc1, err := p.Acquire("ufl.edu")
	if err != nil || !alloc1 {
		t.Fatalf("first acquire: %v %v", alloc1, err)
	}
	n2, alloc2, err := p.Acquire("ufl.edu")
	if err != nil || alloc2 {
		t.Fatalf("second acquire for same domain: alloc=%v err=%v", alloc2, err)
	}
	if n1 != n2 {
		t.Error("same domain got different networks")
	}
	if n1.VMs() != 2 {
		t.Errorf("vms = %d", n1.VMs())
	}
	n3, alloc3, err := p.Acquire("nwu.edu")
	if err != nil || !alloc3 {
		t.Fatalf("other-domain acquire: %v %v", alloc3, err)
	}
	if n3 == n1 {
		t.Error("two domains share a host-only network")
	}
	// Pool of 2 exhausted for a third domain.
	if _, _, err := p.Acquire("mit.edu"); err != ErrExhausted {
		t.Errorf("expected exhaustion, got %v", err)
	}
	if p.FreeCount() != 0 || !p.HasDomain("ufl.edu") {
		t.Error("accounting wrong")
	}
}

func TestNetPoolReleaseFreesOnLastVM(t *testing.T) {
	p := NewNetPool("vmnet", 1)
	p.Acquire("a.edu")
	p.Acquire("a.edu")
	if err := p.Release("a.edu"); err != nil {
		t.Fatal(err)
	}
	if p.FreeCount() != 0 {
		t.Error("network freed while VMs remain")
	}
	if err := p.Release("a.edu"); err != nil {
		t.Fatal(err)
	}
	if p.FreeCount() != 1 {
		t.Error("network not freed after last VM")
	}
	if err := p.Release("a.edu"); err == nil {
		t.Error("release for non-owning domain accepted")
	}
	// Freed network reusable by another domain.
	if _, alloc, err := p.Acquire("b.edu"); err != nil || !alloc {
		t.Errorf("reacquire: %v %v", alloc, err)
	}
}

// A VNET lookup reads the pool: it neither attaches a VM to the owner's
// network nor hands a free network to a domain that holds none.
func TestSwitchLookupAllocatesNothing(t *testing.T) {
	p := NewNetPool("vmnet", 2)
	n, _, err := p.Acquire("ufl.edu")
	if err != nil {
		t.Fatal(err)
	}
	sw, ok := p.Switch("ufl.edu")
	if !ok || sw != n.Switch {
		t.Errorf("owned domain: switch %v ok=%v, want %v", sw, ok, n.Switch)
	}
	if free, vms := p.FreeCount(), n.VMs(); free != 1 || vms != 1 {
		t.Errorf("after lookup: %d free, owner has %d VMs; want 1 and 1", free, vms)
	}
	if sw, ok := p.Switch("nwu.edu"); ok || sw != nil {
		t.Errorf("unowned domain resolved to %v", sw)
	}
	if p.FreeCount() != 1 || p.HasDomain("nwu.edu") {
		t.Error("lookup of an unowned domain allocated a network")
	}
}

// Lookups race Acquire/Release churn (run under -race): each churning
// domain holds at most one of the two networks, so neither may ever find
// the pool exhausted, and the pool ends empty.
func TestSwitchLookupUnderChurn(t *testing.T) {
	p := NewNetPool("vmnet", 2)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, domain := range []string{"a.edu", "b.edu"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if _, _, err := p.Acquire(domain); err != nil {
					t.Errorf("%s acquire %d: %v", domain, i, err)
					return
				}
				if err := p.Release(domain); err != nil {
					t.Errorf("%s release %d: %v", domain, i, err)
					return
				}
			}
		}()
	}
	lookups := make(chan struct{})
	go func() {
		defer close(lookups)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, domain := range []string{"a.edu", "b.edu", "c.edu"} {
				if sw, ok := p.Switch(domain); ok && domain == "c.edu" {
					t.Errorf("c.edu, which never acquired, resolved to %v", sw)
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-lookups
	if p.FreeCount() != p.Size() {
		t.Errorf("%d of %d networks free after the churn", p.FreeCount(), p.Size())
	}
}

func TestAcquireEmptyDomain(t *testing.T) {
	p := NewNetPool("vmnet", 1)
	if _, _, err := p.Acquire(""); err == nil {
		t.Error("empty domain accepted")
	}
}
