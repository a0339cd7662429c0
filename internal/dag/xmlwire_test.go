package dag

import (
	"encoding/xml"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"testing"
	"time"

	"vmplants/internal/xmlwire"
)

// The oracle: encoding/xml's reading of the struct tags in xml.go,
// which is what the graph's codec was before AppendXML and DecodeXML
// replaced it.

// xmlDAG and the types below are the format as struct tags, which
// encoding/xml reads.
type xmlDAG struct {
	Nodes []xmlNode `xml:"node"`
	Edges []xmlEdge `xml:"edge"`
}

type xmlNode struct {
	ID      string      `xml:"id,attr"`
	Action  string      `xml:"action,attr"`
	Target  string      `xml:"target,attr,omitempty"`
	Params  []xmlParam  `xml:"param"`
	OnError *xmlOnError `xml:"onerror"`
}

type xmlParam struct {
	Name  string `xml:"name,attr"`
	Value string `xml:"value,attr"`
}

type xmlOnError struct {
	Retries  int          `xml:"retries,attr"`
	Continue bool         `xml:"continue,attr"`
	Handlers []xmlHandler `xml:"handler"`
}

type xmlHandler struct {
	Action string     `xml:"action,attr"`
	Target string     `xml:"target,attr,omitempty"`
	Params []xmlParam `xml:"param"`
}

type xmlEdge struct {
	From string `xml:"from,attr"`
	To   string `xml:"to,attr"`
}

func paramsFromXML(ps []xmlParam) map[string]string {
	if len(ps) == 0 {
		return nil
	}
	m := make(map[string]string, len(ps))
	for _, p := range ps {
		m[p.Name] = p.Value
	}
	return m
}

// fromXML builds and validates the graph a decoded document describes,
// then replaces g with it.
func (g *Graph) fromXML(x *xmlDAG) error {
	fresh := NewGraph()
	for _, xn := range x.Nodes {
		tgt, err := ParseTarget(xn.Target)
		if err != nil {
			return fmt.Errorf("dag: node %q: %w", xn.ID, err)
		}
		n := &Node{
			ID:     xn.ID,
			Action: Action{Op: xn.Action, Target: tgt, Params: paramsFromXML(xn.Params)},
		}
		if xn.OnError != nil {
			n.OnError = ErrorPolicy{Retries: xn.OnError.Retries, Continue: xn.OnError.Continue}
			for _, h := range xn.OnError.Handlers {
				ht, err := ParseTarget(h.Target)
				if err != nil {
					return fmt.Errorf("dag: node %q handler: %w", xn.ID, err)
				}
				n.OnError.Handler = append(n.OnError.Handler, Action{
					Op: h.Action, Target: ht, Params: paramsFromXML(h.Params),
				})
			}
		}
		if err := fresh.AddNode(n); err != nil {
			return err
		}
	}
	for _, xe := range x.Edges {
		if err := fresh.AddEdge(xe.From, xe.To); err != nil {
			return err
		}
	}
	if err := fresh.Validate(); err != nil {
		return err
	}
	g.nodes, g.slots, g.edges, g.heads = fresh.nodes, fresh.slots, fresh.edges, fresh.heads
	g.idx.Store(fresh.idx.Load()) // what Validate just derived, for the plan that follows
	return nil
}

func paramsToXML(m map[string]string) []xmlParam {
	if len(m) == 0 {
		return nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]xmlParam, len(keys))
	for i, k := range keys {
		out[i] = xmlParam{Name: k, Value: m[k]}
	}
	return out
}

// MarshalXML encodes the graph in the wire format.
func (g *Graph) MarshalXML(e *xml.Encoder, start xml.StartElement) error {
	x := xmlDAG{}
	for _, id := range g.ActionIDs() {
		n, _ := g.Node(id)
		xn := xmlNode{
			ID:     n.ID,
			Action: n.Action.Op,
			Target: n.Action.Target.String(),
			Params: paramsToXML(n.Action.Params),
		}
		pol := n.OnError
		if pol.Retries != 0 || pol.Continue || len(pol.Handler) > 0 {
			xe := &xmlOnError{Retries: pol.Retries, Continue: pol.Continue}
			for _, h := range pol.Handler {
				xe.Handlers = append(xe.Handlers, xmlHandler{
					Action: h.Op,
					Target: h.Target.String(),
					Params: paramsToXML(h.Params),
				})
			}
			xn.OnError = xe
		}
		x.Nodes = append(x.Nodes, xn)
	}
	for _, ed := range g.Edges() {
		x.Edges = append(x.Edges, xmlEdge{From: ed[0], To: ed[1]})
	}
	start.Name = xml.Name{Local: "dag"}
	return e.EncodeElement(x, start)
}

// UnmarshalXML decodes the wire format and validates the result.
func (g *Graph) UnmarshalXML(d *xml.Decoder, start xml.StartElement) error {
	if start.Name.Local != "dag" {
		return fmt.Errorf("expected element type <dag> but have <%s>", start.Name.Local)
	}
	var x xmlDAG
	if err := d.DecodeElement(&x, &start); err != nil {
		return err
	}
	if len(x.Nodes) > maxWireNodes {
		return errTooManyNodes
	}
	return g.fromXML(&x)
}

// scanGraph decodes a standalone <dag> document with DecodeXML.
func scanGraph(doc []byte) (*Graph, error) {
	s := xmlwire.NewScanner(doc)
	if err := s.Open("dag"); err != nil {
		return nil, err
	}
	g := new(Graph)
	if err := g.DecodeXML(s); err != nil {
		return nil, err
	}
	return g, s.End()
}

// sameGraph is reflect.DeepEqual on the nodes and the edge chains, and
// the same answer from both ID tables for every ID. The derived index
// is left out (a Graph holds it behind a pointer DeepEqual compares by
// address), and so is the tables' layout, which depends on their
// sizes.
func sameGraph(a, b *Graph) bool {
	if !reflect.DeepEqual(a.nodes, b.nodes) || !slices.Equal(a.edges, b.edges) || !slices.Equal(a.heads, b.heads) {
		return false
	}
	for i := range a.nodes {
		if a.pos(a.nodes[i].ID) != int32(i) || b.pos(a.nodes[i].ID) != int32(i) {
			return false
		}
	}
	return true
}

func TestAppendXMLMatchesMarshalXML(t *testing.T) {
	graphs := []*Graph{
		NewBuilder().MustBuild(),
		diamond(t),
		NewBuilder().
			AddWithPolicy("A", Action{Op: "install-os", Target: Host, Params: map[string]string{"z": "<&>", "a": "\"'\t\n", "": "\x00\xff"}},
				ErrorPolicy{Retries: 2, Continue: true, Handler: []Action{{Op: "cleanup", Params: map[string]string{"script": "x.sh"}}, {Op: "notify", Target: Host}}}).
			AddWithPolicy("B<", Action{Op: ""}, ErrorPolicy{Retries: -1}, "A").
			AddWithPolicy("C", Action{Op: "x", Params: map[string]string{}}, ErrorPolicy{Continue: true}, "A").
			MustBuild(),
	}
	for _, g := range graphs {
		want, err := xml.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		got := g.AppendXML(nil)
		if string(got) != string(want) {
			t.Errorf("bytes differ\n got: %q\nwant: %q", got, want)
		}
		var back Graph
		if err := xml.Unmarshal(got, &back); err != nil {
			t.Fatal(err)
		}
		scanned, err := scanGraph(got)
		if err != nil {
			t.Fatalf("%q: %v", got, err)
		}
		if !sameGraph(scanned, &back) {
			t.Errorf("%q\n got: %#v\nwant: %#v", got, scanned, &back)
		}
	}
}

// FuzzGraphXML: DecodeXML never panics, and what it accepts
// encoding/xml accepts, as the same graph.
func FuzzGraphXML(f *testing.F) {
	f.Add([]byte(`<dag><edge from="START" to="FINISH"></edge></dag>`))
	f.Add([]byte(`<dag><node id="A" action="install-os" target="guest"><param name="distro" value="redhat-8.0"></param>` +
		`<onerror retries="1" continue="true"><handler action="run-script" target="host"><param name="script" value="cleanup.sh"></param></handler></onerror></node>` +
		`<node id="B" action="create-user" target="guest"></node>` +
		`<edge from="START" to="A"></edge><edge from="A" to="B"></edge><edge from="B" to="FINISH"></edge></dag>`))
	f.Add([]byte("<?xml version='1.0'?>\n<dag>\n  <!-- one node -->\n  <edge from='START' to='A'/>\n  <node id='A' action='a&amp;b' target='HOST'><param name='k' value='1'/><param name='k' value='2'/></node>\n  <edge from='A' to='FINISH'/>\n</dag>\n"))
	f.Add([]byte(`<dag><node id="A" action="x"><onerror retries=" 2 " continue="T"/><later/></node><edge from="START" to="A"/><edge from="A" to="FINISH"/></dag>`))
	// An edge naming a node declared after it, and a duplicate edge.
	f.Add([]byte(`<dag><edge from="START" to="B"/><edge from="B" to="FINISH"/><node id="B" action="y" target="Host"></node></dag>`))
	f.Add([]byte(`<dag><node id="A" action="x"/><edge from="START" to="A"/><edge from="A" to="FINISH"/><edge from="START" to="A"/></dag>`))
	f.Fuzz(func(t *testing.T, doc []byte) {
		got, err := scanGraph(doc)
		if err != nil {
			return
		}
		var want Graph
		if err := xml.Unmarshal(doc, &want); err != nil {
			t.Fatalf("accepted what encoding/xml rejects (%v): %q", err, doc)
		}
		if !sameGraph(got, &want) {
			t.Fatalf("decoded differently\n got: %#v\nwant: %#v\n%q", got, &want, doc)
		}
	})
}

// DecodeXML refuses what AddNode, AddEdge and Validate refuse, with
// their words, and where several edges are wrong it names the first in
// document order, as adding them one by one does. An edge may name a
// node declared after it.
func TestDecodeMatchesOracle(t *testing.T) {
	docs := []string{
		`<dag><node id="" action="x"/></dag>`,
		`<dag><node action="x"/></dag>`,
		`<dag><node id="START" action="x"/></dag>`,
		`<dag><node id="A" action="x"/><node id="A" action="y"/></dag>`,
		`<dag><node id="A" action="x" target="mars"/></dag>`,
		`<dag><node id="A" action="x"><onerror><handler action="h" target="moon"/></onerror></node></dag>`,
		`<dag><node id="A" action="x"/><edge from="B" to="A"/></dag>`,
		`<dag><node id="A" action="x"/><edge from="A" to="B"/></dag>`,
		`<dag><node id="A" action="x"/><edge to="A"/></dag>`,
		`<dag><node id="A" action="x"/><edge from="A" to="A"/></dag>`,
		`<dag><node id="A" action="x"/><edge from="START" to="A"/><edge from="START" to="A"/></dag>`,
		`<dag><node id="A" action="x"/><edge from="START" to="A"/><edge from="START" to="A"/><edge from="A" to="Z"/></dag>`,
		`<dag><node id="A" action="x"/><edge from="START" to="A"/><edge from="A" to="Z"/><edge from="START" to="A"/></dag>`,
		`<dag><node id="A" action="x"/><node id="B" action="y"/><edge from="A" to="B"/><edge from="START" to="A"/>` +
			`<edge from="B" to="FINISH"/><edge from="START" to="A"/><edge from="A" to="B"/></dag>`,
		`<dag><edge from="START" to="A"/><node id="A" action="x"/><edge from="A" to="FINISH"/><edge from="START" to="A"/></dag>`,
		`<dag><node id="A" action="x"/><node id="B" action="y"/><edge from="START" to="A"/><edge from="A" to="B"/>` +
			`<edge from="B" to="A"/><edge from="B" to="FINISH"/></dag>`,
		`<dag><node id="A" action="x"/><edge from="START" to="FINISH"/></dag>`,
		`<dag><edge from="START" to="A"/><edge from="A" to="B"/><node id="A" action="x"/>` +
			`<edge from="B" to="FINISH"/><node id="B" action="y"/></dag>`,
	}
	for _, doc := range docs {
		got, gerr := scanGraph([]byte(doc))
		var want Graph
		werr := xml.Unmarshal([]byte(doc), &want)
		switch {
		case gerr == nil && werr == nil:
			if !sameGraph(got, &want) {
				t.Errorf("%s\n got: %#v\nwant: %#v", doc, got, &want)
			}
		case gerr == nil || werr == nil || gerr.Error() != werr.Error():
			t.Errorf("%s\n got: %v\nwant: %v", doc, gerr, werr)
		}
	}
}

// A decoded graph's successor and predecessor lists are carved from one
// array, so growing one of them must not write into its neighbour.
func TestDecodedListsGrowApart(t *testing.T) {
	mutate := func(g *Graph) {
		for _, n := range []string{"E", "F"} {
			if err := g.AddNode(&Node{ID: n, Action: Action{Op: "x"}}); err != nil {
				t.Fatal(err)
			}
		}
		for _, e := range [][2]string{{StartID, "E"}, {"A", "E"}, {"E", "D"}, {"B", "F"}, {"F", FinishID}, {"C", "F"}, {"E", "F"}} {
			if err := g.AddEdge(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := diamond(t)
	got, err := scanGraph(want.AppendXML(nil))
	if err != nil {
		t.Fatal(err)
	}
	mutate(want)
	mutate(got)
	for _, id := range want.NodeIDs() {
		if s, w := got.Successors(id), want.Successors(id); !slices.Equal(s, w) {
			t.Errorf("successors of %s = %v, want %v", id, s, w)
		}
		if p, w := got.Predecessors(id), want.Predecessors(id); !slices.Equal(p, w) {
			t.Errorf("predecessors of %s = %v, want %v", id, p, w)
		}
	}
	if err := got.Validate(); err != nil {
		t.Error(err)
	}
}

// hubDocs returns two valid graphs of nodes nodes and about the same
// number of edges: in hub, the first hubs nodes each precede every other
// node; in spread, every node precedes the next hubs nodes.
func hubDocs(nodes, hubs int) (hub, spread []byte) {
	doc := func(edges func(add func(from, to string))) []byte {
		b := []byte("<dag>")
		for i := range nodes {
			b = fmt.Appendf(b, `<node id="%d" action="x"/>`, i)
		}
		edges(func(from, to string) { b = fmt.Appendf(b, `<edge from="%s" to="%s"/>`, from, to) })
		return append(b, "</dag>"...)
	}
	id := strconv.Itoa
	hub = doc(func(add func(from, to string)) {
		for h := range hubs {
			add(StartID, id(h))
			for i := hubs; i < nodes; i++ {
				add(id(h), id(i))
			}
		}
		for i := hubs; i < nodes; i++ {
			add(id(i), FinishID)
		}
	})
	spread = doc(func(add func(from, to string)) {
		add(StartID, id(0))
		for i := range nodes {
			for j := i + 1; j <= i+hubs && j < nodes; j++ {
				add(id(i), id(j))
			}
		}
		add(id(nodes-1), FinishID)
	})
	return hub, spread
}

// The duplicate-edge check costs the same whether a graph's edges
// leave a few nodes or all of them: a node with thousands of edges
// must not make each of them scan the ones before it.
func TestHubEdgesDecodeInLinearTime(t *testing.T) {
	hub, spread := hubDocs(maxWireNodes, 36)
	best := func(doc []byte) time.Duration {
		var min time.Duration
		for range 3 {
			start := time.Now()
			if _, err := scanGraph(doc); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); min == 0 || d < min {
				min = d
			}
		}
		return min
	}
	h, s := best(hub), best(spread)
	t.Logf("hub %d bytes in %v, spread %d bytes in %v", len(hub), h, len(spread), s)
	if h > 2*s {
		t.Errorf("hub graph decodes in %v, %.1f× the spread one's %v; want ≤ 2×", h, float64(h)/float64(s), s)
	}
}
