// Package simnet is the Ethernet-layer substrate for VM networking: MAC
// addresses, frames, learning switches, and the pools of host-only
// ("vmnet") networks that VMPlants allocate per client domain (paper
// §3.3: "host-only networks correspond to statically installed vmnet
// switches … which are dynamically assigned to client domains. The
// assignments must ensure that VMs from different client domains are
// never created inside the same host-only network").
//
// Delivery is synchronous and in-memory; the latency of LAN frames is
// negligible against the multi-second state copies the experiments
// measure, so no virtual time is charged here.
package simnet

import (
	"errors"
	"fmt"
	"sync"
)

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

// Broadcast is the all-ones broadcast address.
var Broadcast = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// String renders the usual colon-hex form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// ParseMAC inverts String.
func ParseMAC(s string) (MAC, error) {
	var m MAC
	n, err := fmt.Sscanf(s, "%02x:%02x:%02x:%02x:%02x:%02x", &m[0], &m[1], &m[2], &m[3], &m[4], &m[5])
	if err != nil || n != 6 {
		return MAC{}, fmt.Errorf("simnet: bad MAC %q", s)
	}
	return m, nil
}

// MACPool mints locally administered unicast MACs deterministically.
type MACPool struct {
	mu   sync.Mutex
	next uint32
	oui  [3]byte
}

// NewMACPool creates a pool under the VMware-style OUI 00:50:56.
func NewMACPool() *MACPool {
	return &MACPool{oui: [3]byte{0x00, 0x50, 0x56}}
}

// Next returns a fresh MAC.
func (p *MACPool) Next() MAC {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.next++
	n := p.next
	return MAC{p.oui[0], p.oui[1], p.oui[2], byte(n >> 16), byte(n >> 8), byte(n)}
}

// EtherType values used by the system.
const (
	EtherTypeIPv4 = 0x0800
	EtherTypeARP  = 0x0806
	EtherTypeTest = 0x88B5 // local experimental, used by tests and probes
)

// Frame is one Ethernet frame.
type Frame struct {
	Dst, Src  MAC
	EtherType uint16
	Payload   []byte
}

// Clone deep-copies the frame so receivers can't alias sender buffers.
func (f Frame) Clone() Frame {
	c := f
	c.Payload = append([]byte(nil), f.Payload...)
	return c
}

// Port is an attachment point on a switch. A port either queues frames
// for polling (NIC-style) or forwards them to a handler (VNET bridges).
type Port struct {
	name    string
	sw      *Switch
	mu      sync.Mutex
	inbox   []Frame
	handler func(Frame)
	closed  bool
}

// Name returns the port name.
func (p *Port) Name() string { return p.name }

// SetHandler routes received frames to fn instead of the inbox. It must
// be set before traffic flows.
func (p *Port) SetHandler(fn func(Frame)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.handler = fn
}

// deliver hands a frame to this port.
func (p *Port) deliver(f Frame) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	h := p.handler
	if h == nil {
		p.inbox = append(p.inbox, f)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	h(f)
}

// Poll removes and returns the oldest queued frame.
func (p *Port) Poll() (Frame, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.inbox) == 0 {
		return Frame{}, false
	}
	f := p.inbox[0]
	p.inbox = p.inbox[1:]
	return f, true
}

// Pending reports queued frame count.
func (p *Port) Pending() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.inbox)
}

// Send transmits a frame from this port into the switch.
func (p *Port) Send(f Frame) error {
	p.mu.Lock()
	sw, closed := p.sw, p.closed
	p.mu.Unlock()
	if closed || sw == nil {
		return fmt.Errorf("simnet: send on detached port %q", p.name)
	}
	sw.forward(p, f.Clone())
	return nil
}

// Close detaches the port; subsequent sends fail, deliveries are dropped.
func (p *Port) Close() {
	p.mu.Lock()
	sw := p.sw
	p.closed = true
	p.sw = nil
	p.mu.Unlock()
	if sw != nil {
		sw.detach(p)
	}
}

// Switch is a learning Ethernet switch.
type Switch struct {
	name  string
	mu    sync.Mutex
	ports map[*Port]bool
	fdb   map[MAC]*Port // forwarding database: learned source addresses

	frames uint64 // forwarded frame count
	floods uint64 // frames flooded for unknown/broadcast destinations
}

// NewSwitch creates an empty switch.
func NewSwitch(name string) *Switch {
	return &Switch{name: name, ports: make(map[*Port]bool), fdb: make(map[MAC]*Port)}
}

// Name returns the switch name.
func (s *Switch) Name() string { return s.name }

// Attach creates a new port on the switch.
func (s *Switch) Attach(name string) *Port {
	p := &Port{name: name, sw: s}
	s.mu.Lock()
	s.ports[p] = true
	s.mu.Unlock()
	return p
}

// Ports reports the number of attached ports.
func (s *Switch) Ports() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ports)
}

// Stats reports forwarded and flooded frame counts.
func (s *Switch) Stats() (frames, floods uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.frames, s.floods
}

func (s *Switch) detach(p *Port) {
	s.mu.Lock()
	delete(s.ports, p)
	for mac, port := range s.fdb {
		if port == p {
			delete(s.fdb, mac)
		}
	}
	s.mu.Unlock()
}

// forward implements learning-switch semantics: learn the source, then
// unicast to the learned destination port or flood.
func (s *Switch) forward(from *Port, f Frame) {
	s.mu.Lock()
	if f.Src != Broadcast {
		s.fdb[f.Src] = from
	}
	s.frames++
	var targets []*Port
	if f.Dst != Broadcast {
		if out, ok := s.fdb[f.Dst]; ok && out != from {
			targets = []*Port{out}
		}
	}
	if targets == nil {
		s.floods++
		for p := range s.ports {
			if p != from {
				targets = append(targets, p)
			}
		}
	}
	s.mu.Unlock()
	// Deterministic flood order: by port name.
	sortPorts(targets)
	for _, p := range targets {
		p.deliver(f)
	}
}

func sortPorts(ps []*Port) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j].name < ps[j-1].name; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}

// HostOnlyNet is one vmnet-style host-only network: a switch plus the
// client domain currently owning it.
type HostOnlyNet struct {
	ID     string
	Switch *Switch
	domain string
	vms    int
}

// VMs returns the number of VMs attached.
func (h *HostOnlyNet) VMs() int { return h.vms }

// NetPool manages a plant's statically installed host-only networks and
// their dynamic assignment to client domains.
type NetPool struct {
	mu   sync.Mutex
	nets []*HostOnlyNet
}

// ErrExhausted is returned when every host-only network is owned by
// some other domain.
var ErrExhausted = errors.New("simnet: no free host-only network")

// NewNetPool creates n host-only networks named prefix0..prefix<n-1>.
func NewNetPool(prefix string, n int) *NetPool {
	pool := &NetPool{}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("%s%d", prefix, i)
		pool.nets = append(pool.nets, &HostOnlyNet{ID: id, Switch: NewSwitch(id)})
	}
	return pool
}

// Size returns the total number of networks.
func (p *NetPool) Size() int { return len(p.nets) }

// FreeCount returns how many networks are unowned.
func (p *NetPool) FreeCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, h := range p.nets {
		if h.domain == "" {
			n++
		}
	}
	return n
}

// HasDomain reports whether the domain already owns a network here.
func (p *NetPool) HasDomain(domain string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, h := range p.nets {
		if h.domain == domain {
			return true
		}
	}
	return false
}

// Switch returns the switch of the network the domain owns, without
// attaching a VM or allocating a network: the VNET server's lookup.
func (p *NetPool) Switch(domain string) (*Switch, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, h := range p.nets {
		if h.domain == domain {
			return h.Switch, true
		}
	}
	return nil, false
}

// Acquire returns the domain's network, allocating a free one when the
// domain holds none. allocated reports whether a fresh network was
// assigned (the event that incurs the cost model's one-time network
// cost). VM attachment counts are incremented.
func (p *NetPool) Acquire(domain string) (h *HostOnlyNet, allocated bool, err error) {
	if domain == "" {
		return nil, false, errors.New("simnet: empty domain")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, n := range p.nets {
		if n.domain == domain {
			n.vms++
			return n, false, nil
		}
	}
	for _, n := range p.nets {
		if n.domain == "" {
			n.domain = domain
			n.vms = 1
			return n, true, nil
		}
	}
	return nil, false, ErrExhausted
}

// Release decrements the domain's VM count; the network returns to the
// free pool when its last VM is collected.
func (p *NetPool) Release(domain string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, n := range p.nets {
		if n.domain == domain {
			n.vms--
			if n.vms < 0 {
				return fmt.Errorf("simnet: release imbalance for domain %q", domain)
			}
			if n.vms == 0 {
				n.domain = ""
			}
			return nil
		}
	}
	return fmt.Errorf("simnet: domain %q owns no network", domain)
}
