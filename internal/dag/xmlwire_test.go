package dag

import (
	"encoding/xml"
	"reflect"
	"testing"

	"vmplants/internal/xmlwire"
)

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
