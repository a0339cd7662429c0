package service

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"vmplants/internal/proto"
	"vmplants/internal/shop"
	"vmplants/internal/telemetry"
)

// dropListener closes the first drops accepted connections before the
// protocol can answer: a transient network failure the shop's own
// recovery must absorb.
type dropListener struct {
	net.Listener
	mu    sync.Mutex
	drops int
}

func (l *dropListener) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil {
			return c, err
		}
		l.mu.Lock()
		drop := l.drops > 0
		if drop {
			l.drops--
		}
		l.mu.Unlock()
		if !drop {
			return c, nil
		}
		c.Close()
	}
}

// startTracedPlantDaemon is startPlantDaemon with a telemetry hub and,
// when drops > 0, a listener that kills the first connections.
func startTracedPlantDaemon(t *testing.T, name string, seed int64, drops int) (string, *telemetry.Hub) {
	t.Helper()
	return startPlantDaemonOn(t, name, seed, func(l net.Listener) net.Listener {
		if drops > 0 {
			return &dropListener{Listener: l, drops: drops}
		}
		return l
	})
}

// startTracedShopDaemon spins up a shop daemon over the given plant
// daemons, its telemetry hub wired through the shop and its remote plant
// handles.
func startTracedShopDaemon(t *testing.T, plantAddrs map[string]string) (string, *telemetry.Hub) {
	t.Helper()
	d := NewDaemon("shop")
	hub := d.Hub
	var handles []shop.PlantHandle
	for name, a := range plantAddrs {
		handles = append(handles, &RemotePlant{PlantName: name, Addr: a, Timeout: 5 * time.Second, Telemetry: hub})
	}
	s := shop.New("shop", handles, 7)
	s.SetTelemetry(hub)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serve(t, l, NewShopHandler(d.Runner, s))
	return l.Addr().String(), hub
}

// TestConcurrentCreateSpanTreesOverTCP drives four concurrent creations
// over two client connections through real TCP daemons — one of which
// drops its first connections — and checks the end-to-end observability
// contract: spans merged across all three processes form exactly one
// rooted tree per creation, the plant-side subtree joins through the
// trace context on the message envelope, and each dropped connection
// surfaces as a failed rpc.estimate-request span inside its creation's
// tree rather than as a broken trace: the bidding round leaves the
// plant out, and the creation is served by the other.
func TestConcurrentCreateSpanTreesOverTCP(t *testing.T) {
	addrA, hubA := startTracedPlantDaemon(t, "plantA", 1, 2)
	addrB, hubB := startTracedPlantDaemon(t, "plantB", 2, 0)
	shopAddr, shopHub := startTracedShopDaemon(t,
		map[string]string{"plantA": addrA, "plantB": addrB})

	var clients [2]*proto.Client
	for i := range clients {
		c, err := proto.Dial(shopAddr, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}

	const n = 4
	ids := make([]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		r := createReq(t)
		r.Name = fmt.Sprintf("trace-%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := clients[i%len(clients)].Call(&proto.Message{Kind: proto.KindCreateRequest, Create: r})
			if err == nil {
				ids[i] = resp.Created.VMID
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("creation %d failed: %v", i, err)
		}
	}

	// Merge the three processes' span sets; the per-instance ID bases
	// must keep them disjoint.
	var spans []telemetry.Span
	for _, h := range []*telemetry.Hub{shopHub, hubA, hubB} {
		spans = append(spans, h.T().Spans()...)
	}
	inSet := map[uint64]bool{}
	for _, s := range spans {
		if inSet[s.ID] {
			t.Fatalf("span ID %d minted by two daemons", s.ID)
		}
		inSet[s.ID] = true
	}

	groups := map[uint64][]telemetry.Span{}
	for _, s := range spans {
		groups[s.TraceID] = append(groups[s.TraceID], s)
	}
	traceOf := map[string]uint64{}
	creations := map[uint64]bool{}
	for _, s := range spans {
		if s.Name == "shop.create" {
			traceOf[s.Attr("vmid")] = s.TraceID
			creations[s.TraceID] = true
		}
	}
	dropped := 0
	for _, s := range spans {
		if s.Err == "" || !strings.HasPrefix(s.Name, "rpc.") {
			continue
		}
		if s.Name != "rpc.estimate-request" || s.Attr("addr") != addrA {
			t.Errorf("failed span %q to %s, want only estimates to the dropping plant %s", s.Name, s.Attr("addr"), addrA)
		}
		if !creations[s.TraceID] {
			t.Errorf("failed %s in trace %d, which is no creation's", s.Name, s.TraceID)
		}
		dropped++
	}
	if dropped != 2 {
		t.Errorf("%d failed rpc spans, want one per dropped connection (2)", dropped)
	}

	for _, id := range ids {
		trace, ok := traceOf[id]
		if !ok {
			t.Errorf("%s: no shop.create span", id)
			continue
		}
		group := groups[trace]
		inGroup := map[uint64]bool{}
		for _, s := range group {
			inGroup[s.ID] = true
		}
		roots := 0
		names := map[string]int{}
		for _, s := range group {
			names[s.Name]++
			if s.Parent == 0 {
				roots++
				if s.Name != "shop.create" {
					t.Errorf("%s: root span is %q, want shop.create", id, s.Name)
				}
			} else if !inGroup[s.Parent] {
				t.Errorf("%s: orphan span %q (parent %d not in trace %d)", id, s.Name, s.Parent, trace)
			}
		}
		if roots != 1 {
			t.Errorf("%s: trace %d has %d roots, want 1", id, trace, roots)
		}
		// The tree must cross all three layers: shop, the RPC boundary,
		// and the plant's clone pipeline.
		for _, want := range []string{"rpc.create-request", "plant.create", "clone"} {
			if names[want] == 0 {
				t.Errorf("%s: trace lacks a %q span", id, want)
			}
		}
	}
}
