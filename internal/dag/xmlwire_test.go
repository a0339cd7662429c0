package dag

import (
	"encoding/xml"
	"fmt"
	"reflect"
	"sort"
	"testing"

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
	fresh := newGraph(len(x.Nodes) + 2)
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
	g.nodes, g.order, g.succ, g.pred = fresh.nodes, fresh.order, fresh.succ, fresh.pred
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
		n := g.nodes[id]
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

// sameGraph is reflect.DeepEqual on everything but the derived index,
// which a Graph holds behind a pointer DeepEqual compares by address.
func sameGraph(a, b *Graph) bool {
	return reflect.DeepEqual(a.nodes, b.nodes) && reflect.DeepEqual(a.order, b.order) &&
		reflect.DeepEqual(a.succ, b.succ) && reflect.DeepEqual(a.pred, b.pred)
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
