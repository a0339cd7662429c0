package proto

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"vmplants/internal/actions"
	"vmplants/internal/dag"
)

// userGraph is a chain of twelve actions with a parameter each, the
// last naming user: about the size and decode cost of the In-VIGO DAG.
func userGraph(t *testing.T, user string) *dag.Graph {
	t.Helper()
	b := dag.NewBuilder()
	prev := []string(nil)
	for i := range 12 {
		id := fmt.Sprintf("n%d", i)
		b.Add(id, dag.Action{Op: actions.OpInstallPackage, Params: map[string]string{"name": fmt.Sprintf("pkg%d", i)}}, prev...)
		prev = []string{id}
	}
	b.Add("user", dag.Action{Op: actions.OpCreateUser, Params: map[string]string{"name": user}}, prev...)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func estimateOf(g *dag.Graph) *Message {
	return &Message{Kind: KindEstimateRequest, Estimate: &EstimateRequest{Create: &CreateRequest{
		Name: "workspace-1", Arch: "x86", MemoryMB: 64, DiskMB: 2048, Domain: "ufl.edu", Graph: g}}}
}

func createOf(g *dag.Graph) *Message {
	return &Message{Kind: KindCreateRequest, Create: &CreateRequest{
		VMID: "vm-shop-1", Name: "workspace-1", Arch: "x86", MemoryMB: 64, DiskMB: 2048, Domain: "ufl.edu", Graph: g}}
}

// A connection's reader hands a request whose <dag> repeats, byte for
// byte, the last one it decoded the graph it decoded then — the
// winner's create after its estimate — and decodes anything else
// afresh; two connections never share a graph. Unmarshal keeps no DAG.
func TestConnectionDecodesARepeatedDAGOnce(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu   sync.Mutex
		seen []*dag.Graph
		done = make(chan struct{})
	)
	go func() {
		defer close(done)
		Serve(l, func(req *Message) *Message {
			g := req.Create
			if req.Estimate != nil {
				g = req.Estimate.Create
			}
			mu.Lock()
			seen = append(seen, g.Graph)
			mu.Unlock()
			return &Message{Kind: KindPingResponse, Pong: &PingResponse{Service: "plant"}}
		})
	}()
	t.Cleanup(func() { l.Close(); <-done })
	dial := func() *Client {
		c, err := Dial(l.Addr().String(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	last := func(c *Client, m *Message) *dag.Graph {
		t.Helper()
		if _, err := c.Call(m); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		defer mu.Unlock()
		return seen[len(seen)-1]
	}

	g, other := userGraph(t, "ivan"), userGraph(t, "ivam")
	enc, otherEnc := g.AppendXML(nil), other.AppendXML(nil)
	diff := 0
	for i := range min(len(enc), len(otherEnc)) {
		if enc[i] != otherEnc[i] {
			diff++
		}
	}
	if len(enc) != len(otherEnc) || diff != 1 {
		t.Fatalf("the two DAGs should differ in one byte:\n%s\n%s", enc, otherEnc)
	}

	a, b := dial(), dial()
	est := last(a, estimateOf(g))
	if !sameGraph(est, g) {
		t.Fatalf("estimate decoded %s, want %s", est, g)
	}
	if got := last(a, createOf(g)); got != est {
		t.Error("the create after an estimate of the same DAG decoded it again")
	}
	first := last(b, createOf(g))
	if first == est || !sameGraph(first, g) {
		t.Errorf("a second connection was handed the first's graph (%t) or decoded wrong", first == est)
	}
	if got := last(b, createOf(g)); got != first {
		t.Error("a second connection decoded its repeated DAG again")
	}
	if got := last(a, createOf(other)); got == est || !sameGraph(got, other) {
		t.Errorf("a DAG one byte apart was handed the estimate's graph (%t) or decoded wrong", got == est)
	}

	// The create's decode, after the estimate primed the reader, against
	// one with nothing to reuse.
	estDoc, err := Marshal(estimateOf(g))
	if err != nil {
		t.Fatal(err)
	}
	createDoc, err := Marshal(createOf(g))
	if err != nil {
		t.Fatal(err)
	}
	fr := new(frameReader)
	if _, err := decode(estDoc, fr); err != nil {
		t.Fatal(err)
	}
	primed := fr.graph
	reused := testing.AllocsPerRun(50, func() {
		if m, err := decode(createDoc, fr); err != nil || m.Create.Graph != primed {
			t.Fatalf("primed decode: %v, graph reused %t", err, err == nil && m.Create.Graph == primed)
		}
	})
	fresh := testing.AllocsPerRun(50, func() {
		if m, err := Unmarshal(createDoc); err != nil || m.Create.Graph == primed {
			t.Fatalf("Unmarshal: %v, graph reused %t", err, err == nil && m.Create.Graph == primed)
		}
	})
	t.Logf("create decode: %.0f allocations fresh, %.0f with the estimate's graph", fresh, reused)
	if fresh-reused < 20 {
		t.Errorf("reusing the estimate's graph saved %.0f allocations, want ≥ 20", fresh-reused)
	}
}
