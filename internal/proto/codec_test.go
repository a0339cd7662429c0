package proto

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"vmplants/internal/classad"
	"vmplants/internal/dag"
	"vmplants/internal/xmlwire"
)

// The oracle: encoding/xml's reading of the struct tags in proto.go,
// which is what Marshal and Unmarshal were before they stopped using it.
// The classad and dag packages keep their reflection oracles in their
// own tests, out of reach of this one, so encoding/xml sees an embedded
// ad or DAG as an element with no fields it knows: <classad></classad>,
// <dag></dag>. The oracle splices that one element in with the ad's or
// the graph's own codec, which its package holds to its oracle.

// oracleMessage gives the envelope the root element name the codec
// writes.
type oracleMessage struct {
	XMLName xml.Name `xml:"message"`
	Message
}

func oracleMarshal(m *Message) ([]byte, error) {
	if err := m.validateEnvelope(); err != nil {
		return nil, err
	}
	doc, err := xml.Marshal(oracleMessage{Message: *m})
	if err != nil {
		return nil, err
	}
	_, g, ad := embedded(m)
	return spliceEmbedded(doc, g, ad), nil
}

func oracleUnmarshal(doc []byte) (*Message, error) {
	var om oracleMessage
	if err := xml.Unmarshal(doc, &om); err != nil {
		return nil, err
	}
	m := &om.Message
	path, g, ad := embedded(m)
	if err := decodeEmbedded(doc, path, g, ad); err != nil {
		return nil, err
	}
	if err := m.validateEnvelope(); err != nil {
		return nil, err
	}
	return m, nil
}

// embedded locates the one classad or DAG a message's body carries:
// the path of its element and the field that holds it.
func embedded(m *Message) (path string, g **dag.Graph, ad **classad.Ad) {
	switch {
	case m.Create != nil:
		return "message/create-request/dag", &m.Create.Graph, nil
	case m.Estimate != nil && m.Estimate.Create != nil:
		return "message/estimate-request/create-request/dag", &m.Estimate.Create.Graph, nil
	case m.ForwardCreate != nil && m.ForwardCreate.Create != nil:
		return "message/forward-create-request/create-request/dag", &m.ForwardCreate.Create.Graph, nil
	case m.Created != nil:
		return "message/create-response/classad", nil, &m.Created.Ad
	case m.Queried != nil:
		return "message/query-response/classad", nil, &m.Queried.Ad
	case m.Bid != nil:
		return "message/estimate-response/classad", nil, &m.Bid.Ad
	case m.ForwardCreated != nil:
		return "message/forward-create-response/classad", nil, &m.ForwardCreated.Ad
	}
	return "", nil, nil
}

// spliceEmbedded replaces the empty element encoding/xml wrote for a
// non-nil ad or graph with its wire form. Escaped text never holds a
// '<', so the element is the document's only match.
func spliceEmbedded(doc []byte, g **dag.Graph, ad **classad.Ad) []byte {
	switch {
	case g != nil && *g != nil:
		return bytes.Replace(doc, []byte("<dag></dag>"), (*g).AppendXML(nil), 1)
	case ad != nil && *ad != nil:
		return bytes.Replace(doc, []byte("<classad></classad>"), (*ad).AppendXML(nil), 1)
	}
	return doc
}

// decodeEmbedded decodes the element at path in doc, which encoding/xml
// has accepted, into the non-nil ad or graph encoding/xml allocated for
// it.
func decodeEmbedded(doc []byte, path string, g **dag.Graph, ad **classad.Ad) error {
	if (g == nil || *g == nil) && (ad == nil || *ad == nil) {
		return nil
	}
	raw := rawElement(doc, path)
	if g != nil && *g != nil {
		var err error
		*g, err = dag.Decode(bytes.NewReader(raw))
		return err
	}
	s := xmlwire.NewScanner(raw)
	*ad = new(classad.Ad)
	if err := s.Open("classad"); err != nil {
		return err
	}
	if err := (*ad).DecodeXML(s); err != nil {
		return err
	}
	return s.End()
}

// rawElement returns the bytes of the last element at path, its names
// joined by '/', in a document encoding/xml accepts.
func rawElement(doc []byte, path string) []byte {
	d := xml.NewDecoder(bytes.NewReader(doc))
	var open []string
	var begin int64
	var raw []byte
	for {
		at := d.InputOffset()
		tok, err := d.Token()
		if err != nil {
			return raw
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if open = append(open, t.Name.Local); strings.Join(open, "/") == path {
				begin = at
			}
		case xml.EndElement:
			if strings.Join(open, "/") == path {
				raw = doc[begin:d.InputOffset()]
			}
			open = open[:len(open)-1]
		}
	}
}

// gen draws messages whose strings are hostile to an XML codec.
type gen struct{ r *rand.Rand }

var awkward = []string{
	"<", ">", "&", `"`, "'", "\t", "\r", "\n", "\r\n", "\x00", "\x01", "\x1f", "\x7f",
	"\xff", "\xc0\xaf", "\xed\xa0\x80", "é", "\uFFFD", "\uFFFE", "\uFFFF", "\U0001F600",
	"]]>", "&amp;", "&#10;", "<!--", "-->", "<![CDATA[", "<?", " ", "\\", `\"`, "=",
}

func (g gen) str() string {
	switch g.r.Intn(5) {
	case 0:
		return ""
	case 1:
		return fmt.Sprintf("plain-%d", g.r.Intn(1000))
	case 2:
		b := make([]byte, g.r.Intn(12))
		g.r.Read(b)
		return string(b)
	}
	var sb strings.Builder
	for i, n := 0, 1+g.r.Intn(6); i < n; i++ {
		if g.r.Intn(3) == 0 {
			sb.WriteString("text")
		}
		sb.WriteString(awkward[g.r.Intn(len(awkward))])
	}
	return sb.String()
}

func (g gen) float() float64 {
	switch g.r.Intn(6) {
	case 0:
		return 0
	case 1:
		return math.Inf(1 - 2*g.r.Intn(2))
	case 2:
		return float64(g.r.Intn(1e6))
	case 3:
		return math.Float64frombits(g.r.Uint64()&^(0x7ff<<52) | uint64(g.r.Intn(2046)+1)<<52) // any finite normal
	}
	return g.r.NormFloat64() * 1e3
}

func (g gen) ad() *classad.Ad {
	switch g.r.Intn(6) {
	case 0:
		return nil
	case 1:
		return classad.New()
	case 2:
		return new(classad.Ad) // zero value: no attribute map at all
	}
	ad := classad.New()
	for i, n := 0, 1+g.r.Intn(8); i < n; i++ {
		name := fmt.Sprintf("Attr%d", i)
		if g.r.Intn(6) == 0 {
			name = g.str()
		}
		switch g.r.Intn(8) {
		case 0:
			ad.SetString(name, g.str())
		case 1:
			ad.SetString(name, fmt.Sprintf("host%d.ufl.edu", i))
		case 2:
			ad.SetInt(name, g.r.Int63()-g.r.Int63())
		case 3:
			ad.SetReal(name, g.float())
		case 4:
			ad.SetBool(name, g.r.Intn(2) == 0)
		case 5:
			ad.SetValue(name, classad.Strings(g.str(), "b", g.str()))
		case 6:
			ad.Set(name, classad.MustParseExpr(`other.Memory >= MY.MemoryMB && (Arch == "x86" || Rank > 1.5e3)`))
		case 7:
			ad.Set(name, classad.Lit(classad.Undefined()))
		}
	}
	return ad
}

func (g gen) params() map[string]string {
	n := g.r.Intn(4)
	if n == 0 {
		if g.r.Intn(2) == 0 {
			return nil
		}
		return map[string]string{}
	}
	m := make(map[string]string, n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%d", i)
		if g.r.Intn(5) == 0 {
			key = g.str()
		}
		m[key] = g.str()
	}
	return m
}

func (g gen) action() dag.Action {
	a := dag.Action{Op: fmt.Sprintf("op-%d", g.r.Intn(5)), Target: dag.Target(g.r.Intn(2)), Params: g.params()}
	if g.r.Intn(6) == 0 {
		a.Op = g.str()
	}
	return a
}

// graph draws DAGs that are valid (a chain START→n0→…→FINISH plus
// forward shortcuts) and some that are not (no edges at all; a node left
// dangling), with zero, one and many nodes.
func (g gen) graph() *dag.Graph {
	if g.r.Intn(8) == 0 {
		return nil
	}
	gr := dag.NewGraph()
	var ids []string
	for i, n := 0, g.r.Intn(6); i < n; i++ {
		id := fmt.Sprintf("n%d", i)
		if g.r.Intn(8) == 0 {
			id = g.str() + id
		}
		node := &dag.Node{ID: id, Action: g.action()}
		switch g.r.Intn(4) {
		case 0:
			node.OnError = dag.ErrorPolicy{Retries: g.r.Intn(4) - 1, Continue: g.r.Intn(2) == 0}
		case 1:
			node.OnError = dag.ErrorPolicy{Continue: true, Handler: []dag.Action{g.action(), g.action()}}
		case 2:
			node.OnError = dag.ErrorPolicy{Handler: []dag.Action{g.action()}}
		}
		if gr.AddNode(node) == nil {
			ids = append(ids, id)
		}
	}
	if g.r.Intn(8) == 0 {
		return gr // no edges
	}
	chain := append(append([]string{dag.StartID}, ids...), dag.FinishID)
	for i := 0; i+1 < len(chain); i++ {
		if g.r.Intn(16) == 0 {
			continue // a gap: invalid
		}
		gr.AddEdge(chain[i], chain[i+1])
	}
	for i := 0; i < len(chain); i++ {
		for j := i + 2; j < len(chain); j++ {
			if g.r.Intn(4) == 0 {
				gr.AddEdge(chain[i], chain[j])
			}
		}
	}
	return gr
}

func (g gen) create() *CreateRequest {
	r := &CreateRequest{Name: g.str(), Arch: g.str(), MemoryMB: g.r.Intn(4096) - 8, DiskMB: g.r.Intn(1 << 20),
		Domain: g.str(), Graph: g.graph()}
	if g.r.Intn(2) == 0 {
		r.VMID, r.RequestID, r.ProxyAddr, r.Token = g.str(), g.str(), g.str(), g.str()
		r.Origin, r.Backend, r.Reqs = g.str(), g.str(), g.str()
	}
	return r
}

// message builds a message of the given kind.
func (g gen) message(kind Kind) *Message {
	m := &Message{Kind: kind, Seq: g.r.Uint64() >> uint(g.r.Intn(64))}
	if g.r.Intn(2) == 0 {
		m.TraceID, m.ParentSpan = g.r.Uint64(), uint64(g.r.Intn(3))
	}
	switch kind {
	case KindCreateRequest:
		m.Create = g.create()
	case KindCreateResponse:
		m.Created = &CreateResponse{VMID: g.str(), Ad: g.ad()}
	case KindQueryRequest:
		m.Query = &QueryRequest{VMID: g.str()}
	case KindQueryResponse:
		m.Queried = &QueryResponse{VMID: g.str(), Found: g.r.Intn(2) == 0, Ad: g.ad()}
	case KindDestroyRequest:
		m.Destroy = &DestroyRequest{VMID: g.str()}
	case KindDestroyResponse:
		m.Destroyed = &DestroyResponse{VMID: g.str(), Destroyed: g.r.Intn(2) == 0}
	case KindEstimateRequest:
		m.Estimate = &EstimateRequest{}
		if g.r.Intn(4) != 0 {
			m.Estimate.Create = g.create()
		}
	case KindEstimateResponse:
		m.Bid = &EstimateResponse{Plant: g.str(), Cost: g.float(), Ad: g.ad()}
	case KindForwardCreateRequest:
		m.ForwardCreate = &ForwardCreateRequest{Origin: g.str()}
		if g.r.Intn(2) == 0 {
			m.ForwardCreate.Create = g.create()
		} else {
			m.ForwardCreate.Probe, m.ForwardCreate.Token = g.r.Intn(2) == 0, g.str()
		}
	case KindForwardCreateResponse:
		m.ForwardCreated = &ForwardCreateResponse{VMID: g.str(), Ad: g.ad(), Found: g.r.Intn(2) == 0}
	case KindPublishRequest:
		m.Publish = &PublishRequest{VMID: g.str(), Image: g.str()}
	case KindPublishResponse:
		m.Published = &PublishResponse{VMID: g.str(), Image: g.str()}
	case KindLifecycleRequest:
		m.Lifecycle = &LifecycleRequest{VMID: g.str(), Op: g.str()}
	case KindLifecycleResponse:
		m.Lifecycled = &LifecycleResponse{VMID: g.str(), State: g.str()}
	case KindPingRequest:
		m.Ping = &PingRequest{}
	case KindPingResponse:
		m.Pong = &PingResponse{Service: g.str()}
	case KindError:
		m.Err = &ErrorResponse{Code: g.str(), Detail: g.str()}
	default:
		panic("no generator for " + kind)
	}
	return m
}

// sameGraph compares two decoded graphs through the exported API. A
// Graph memoises its derived index behind a pointer, which DeepEqual
// would compare by address.
func sameGraph(a, b *dag.Graph) bool {
	if a == nil || b == nil {
		return a == b
	}
	ids := a.NodeIDs()
	if !reflect.DeepEqual(ids, b.NodeIDs()) || !reflect.DeepEqual(a.Edges(), b.Edges()) {
		return false
	}
	for _, id := range ids {
		na, _ := a.Node(id)
		nb, _ := b.Node(id)
		if !reflect.DeepEqual(na, nb) || !reflect.DeepEqual(a.Predecessors(id), b.Predecessors(id)) {
			return false
		}
	}
	return true
}

// equalRequests is reflect.DeepEqual with the graphs compared by
// sameGraph.
func equalRequests(a, b *CreateRequest) bool {
	ac, bc := *a, *b
	ac.Graph, bc.Graph = nil, nil
	return sameGraph(a.Graph, b.Graph) && reflect.DeepEqual(&ac, &bc)
}

// requestsOf lists every creation request a message carries.
func requestsOf(m *Message) []*CreateRequest {
	var out []*CreateRequest
	if m.Create != nil {
		out = append(out, m.Create)
	}
	if m.Estimate != nil && m.Estimate.Create != nil {
		out = append(out, m.Estimate.Create)
	}
	if m.ForwardCreate != nil && m.ForwardCreate.Create != nil {
		out = append(out, m.ForwardCreate.Create)
	}
	return out
}

// sameAd compares two classads through their API: reflect.DeepEqual
// would compare the address of a list's elements or of an expression,
// not what is there.
func sameAd(a, b *classad.Ad) bool {
	if a == nil || b == nil {
		return a == b
	}
	if !bytes.Equal(a.AppendXML(nil), b.AppendXML(nil)) {
		return false
	}
	for _, name := range a.Names() {
		if !sameValue(a.Eval(name), b.Eval(name)) {
			return false
		}
	}
	return true
}

func sameValue(x, y classad.Value) bool {
	xl, isList := x.ListVal()
	yl, _ := y.ListVal()
	return x.Kind() == y.Kind() && x.String() == y.String() && (!isList || slices.EqualFunc(xl, yl, sameValue))
}

// equalMessages is reflect.DeepEqual on two decoded messages, except
// that request graphs are compared by sameGraph, classads by sameAd, and
// two bids both costing NaN compare equal (DeepEqual never equates
// NaNs).
func equalMessages(a, b *Message) bool {
	if _, _, ada := embedded(a); ada != nil {
		_, _, adb := embedded(b)
		if adb == nil || !sameAd(*ada, *adb) {
			return false
		}
		x, y := *ada, *adb
		*ada, *adb = nil, nil
		defer func() { *ada, *adb = x, y }()
	}
	ra, rb := requestsOf(a), requestsOf(b)
	if len(ra) != len(rb) {
		return false
	}
	for i := range ra {
		ga, gb := ra[i].Graph, rb[i].Graph
		if !sameGraph(ga, gb) {
			return false
		}
		ra[i].Graph, rb[i].Graph = nil, nil
		defer func(i int) { ra[i].Graph, rb[i].Graph = ga, gb }(i)
	}
	return equalModuloNaN(a, b)
}

// equalModuloNaN is reflect.DeepEqual, except that two bids both
// costing NaN compare equal.
func equalModuloNaN(a, b *Message) bool {
	if a.Bid != nil && b.Bid != nil && math.IsNaN(a.Bid.Cost) && math.IsNaN(b.Bid.Cost) {
		ac, bc := *a, *b
		ab, bb := *a.Bid, *b.Bid
		ab.Cost, bb.Cost = 0, 0
		ac.Bid, bc.Bid = &ab, &bb
		return reflect.DeepEqual(&ac, &bc)
	}
	return reflect.DeepEqual(a, b)
}

// TestCodecMatchesEncodingXML is the differential test: over every kind
// and a few thousand hostile messages, Marshal writes exactly the bytes
// encoding/xml writes, and Unmarshal of those bytes succeeds exactly
// when encoding/xml's does and builds exactly the same message.
func TestCodecMatchesEncodingXML(t *testing.T) {
	if len(bodyNames) != 17 {
		t.Fatalf("%d kinds in bodyNames, want 17", len(bodyNames))
	}
	rounds := 150
	if testing.Short() {
		rounds = 20
	}
	g := gen{rand.New(rand.NewSource(16))}
	decoded := 0
	for _, name := range bodyNames {
		for i := 0; i < rounds; i++ {
			m := g.message(Kind(name))
			want, err := oracleMarshal(m)
			if err != nil {
				t.Fatalf("%s: oracle marshal: %v", name, err)
			}
			got, err := Marshal(m)
			if err != nil {
				t.Fatalf("%s: marshal: %v", name, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: wire bytes differ\n got: %q\nwant: %q", name, got, want)
			}
			wantMsg, werr := oracleUnmarshal(got)
			gotMsg, gerr := Unmarshal(got)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("%s: unmarshal error %v, oracle %v\n%q", name, gerr, werr, got)
			}
			if gerr != nil {
				continue
			}
			decoded++
			if !equalMessages(gotMsg, wantMsg) {
				t.Fatalf("%s: decoded messages differ\n got: %+v\nwant: %+v\n%q", name, gotMsg, wantMsg, got)
			}
		}
	}
	t.Logf("%d of %d generated messages decoded", decoded, len(bodyNames)*rounds)
	if decoded < len(bodyNames)*rounds/2 {
		t.Errorf("only %d of %d generated messages decoded: the generator is mostly producing rejects", decoded, len(bodyNames)*rounds)
	}
}

// The shop's intent record is a bare create-request; it has the same
// oracle.
func TestBareCreateRequestMatchesEncodingXML(t *testing.T) {
	g := gen{rand.New(rand.NewSource(17))}
	for i := 0; i < 300; i++ {
		r := g.create()
		want, err := xml.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		want = spliceEmbedded(want, &r.Graph, nil)
		got := []byte(MarshalCreateRequest(r))
		if !bytes.Equal(got, want) {
			t.Fatalf("bytes differ\n got: %q\nwant: %q", got, want)
		}
		var wantReq CreateRequest
		werr := xml.Unmarshal(got, &wantReq)
		if werr == nil {
			werr = decodeEmbedded(got, bareCreateRequest+"/dag", &wantReq.Graph, nil)
		}
		gotReq, gerr := UnmarshalCreateRequest(got)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("unmarshal error %v, oracle %v\n%q", gerr, werr, got)
		}
		if gerr == nil && !equalRequests(gotReq, &wantReq) {
			t.Fatalf("decoded requests differ\n got: %+v\nwant: %+v", gotReq, &wantReq)
		}
	}
}

// handWritten are documents no encoder of ours produces but the decoder
// promises to read: the XML a foreign client may send.
var handWritten = []string{
	`<?xml version="1.0" encoding="UTF-8"?>` + "\n<message kind='ping-request' seq='3'>\n  <!-- probe -->\n  <ping-request/>\n</message>\n",
	`<message kind="query-response" seq="1" future="x"><query-response><vmid>a&amp;b&#x41;&#66;</vmid><found> true </found><later><x y="1">t</x></later>` +
		`<classad><attr name="A">1</attr><attr name='B'>"s"</attr><attr name="C">a &lt; <!-- c -->b</attr></classad></query-response></message>`,
	`<message seq="2" kind="create-request"><create-request><name>n</name><hardware><arch>x86</arch><memoryMB>64</memoryMB><diskMB/></hardware>` +
		`<network><domain>d</domain></network><dag><node id="A" action="install-os"><param name="distro" value="rh"/>` +
		`<onerror retries="2" continue="1"><handler action="cleanup" target="host"/></onerror></node>` +
		`<edge from="START" to="A"/><edge from="A" to="FINISH"/></dag></create-request></message>`,
	"<message kind=\"error\" seq=\"9\"><error><code>c</code><detail>line1\r\nline2\rline3</detail></error></message>",
}

// rejected are documents encoding/xml reads and the decoder refuses:
// outside the subset, ambiguous, or of a kind the protocol dropped.
var rejected = []string{
	`<!DOCTYPE message><message kind="ping-request" seq="1"><ping-request/></message>`,
	`<message kind="ping-request" seq="1"><ping-request/></message><trailing/>`,
	`<message kind="ping-request" seq="1"><![CDATA[x]]><ping-request/></message>`,
	`<message kind="ping-request" seq="1" seq="2"><ping-request/></message>`,
	`<message kind="ping-request" seq="1"><ping-request/><ping-request/></message>`,
	`<message kind="query-request" seq="1"><query-request><vmid>a</vmid><vmid>b</vmid></query-request></message>`,
	`<message kind="query-request" seq="1"><query-request><vmid>a<b/></vmid></query-request></message>`,
	`<message kind="ping-request" seq="1" xmlns="urn:x"><ping-request/></message>`,
	`<m:message xmlns:m="urn:x" kind="ping-request" seq="1"><ping-request/></m:message>`,
	`<message kind="ping-request" seq="1">stray text<ping-request/></message>`,
	`<?xml version="1.1"?><message kind="ping-request" seq="1"><ping-request/></message>`,
	`<message kind="ping-request" seq="1"><?pi x?><ping-request/></message>`,
	`<message kind="ping-request" seq="1"><ping-request/></message` + strings.Repeat("<a>", 40),
	`<message kind="publish-image-request" seq="1"><publish-image-request><image>d</image><parent>p</parent><descriptor>x</descriptor></publish-image-request></message>`,
	`<message kind="publish-image-response" seq="1"><publish-image-response><image>d</image><accepted>true</accepted></publish-image-response></message>`,
	`<message kind="batch-create-request" seq="1"><batch-create-request><items><create-request><name>n</name></create-request></items></batch-create-request></message>`,
	`<message kind="batch-create-response" seq="1"><batch-create-response><items><item><vmid>v</vmid></item></items></batch-create-response></message>`,
	`<message kind="list-request" seq="1"><list-request/></message>`,
	`<message kind="list-response" seq="1"><list-response><plant>p</plant><vmids><vmid>v</vmid></vmids></list-response></message>`,
}

func TestDecoderSubset(t *testing.T) {
	for _, doc := range handWritten {
		got, err := Unmarshal([]byte(doc))
		if err != nil {
			t.Errorf("rejected %q: %v", doc, err)
			continue
		}
		want, err := oracleUnmarshal([]byte(doc))
		if err != nil {
			t.Errorf("oracle rejects %q: %v", doc, err)
			continue
		}
		if !equalMessages(got, want) {
			t.Errorf("%q\n got: %+v\nwant: %+v", doc, got, want)
		}
	}
	for _, doc := range rejected {
		if _, err := Unmarshal([]byte(doc)); err == nil {
			t.Errorf("accepted %q", doc)
		}
	}
	deep := `<message kind="ping-request" seq="1"><ping-request>` + strings.Repeat("<a>", 40) + strings.Repeat("</a>", 40) + `</ping-request></message>`
	if _, err := Unmarshal([]byte(deep)); err == nil {
		t.Error("accepted 42 levels of nesting")
	}
}

// FuzzEnvelope feeds the decoder arbitrary bytes. It must not panic,
// and whatever it accepts encoding/xml must accept too, as the same
// message — it may be stricter, never looser.
func FuzzEnvelope(f *testing.F) {
	g := gen{rand.New(rand.NewSource(18))}
	for _, name := range bodyNames {
		doc, err := Marshal(g.message(Kind(name)))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
	for _, doc := range handWritten {
		f.Add([]byte(doc))
	}
	for _, doc := range rejected {
		f.Add([]byte(doc))
	}
	// A second document whose decode fills the pooled unescape buffer.
	other := []byte(`<message kind="error" seq="9"><error><code>&lt;&lt;&lt;&lt;</code><detail>` +
		strings.Repeat("&amp;&#34;&#x263A;", 64) + `</detail></error></message>`)
	f.Fuzz(func(t *testing.T, doc []byte) {
		own := bytes.Clone(doc)
		got, err := Unmarshal(own)
		if err != nil {
			return
		}
		want, err := oracleUnmarshal(doc)
		if err != nil {
			t.Fatalf("accepted what encoding/xml rejects (%v): %q", err, doc)
		}
		if !equalMessages(got, want) {
			t.Fatalf("decoded differently\n got: %+v\nwant: %+v\n%q", got, want, doc)
		}
		// Read twice off one stream, the second read shares the first's
		// DAG, and both are the same message.
		fr := new(frameReader)
		for range 2 {
			if m, err := decode(doc, fr); err != nil || !equalMessages(m, want) {
				t.Fatalf("read off a stream (%v)\n got: %+v\nwant: %+v\n%q", err, m, want, doc)
			}
		}
		// What was decoded holds on to neither its document nor the
		// buffer the next decode borrows.
		clear(own)
		if _, err := Unmarshal(other); err != nil {
			t.Fatal(err)
		}
		if !equalMessages(got, want) {
			t.Fatalf("changed by a later decode\n got: %+v\nwant: %+v\n%q", got, want, doc)
		}
	})
}

// TestHostileFramesStayWithinTheirSize: the decoders size their slices
// from a count of raw tag bytes, which a frame can fake with a comment
// full of "<node" or "<attr", or with a flood of well-formed nodes past
// the DAG limit. Each such frame must fail while allocating less than
// twice its own size.
func TestHostileFramesStayWithinTheirSize(t *testing.T) {
	// frame fills a 4 MB frame with units, unit(i) the i-th.
	frame := func(head string, unit func(i int) string, tail string) []byte {
		doc := []byte(head)
		for i := 0; len(doc)+len(unit(i))+len(tail) <= MaxMessageSize; i++ {
			doc = append(doc, unit(i)...)
		}
		return append(doc, tail...)
	}
	repeat := func(s string) func(int) string { return func(int) string { return s } }
	const (
		create = `<message kind="create-request" seq="1"><create-request><name>n</name><dag>`
		query  = `<message kind="query-response" seq="1"><query-response><vmid>v</vmid><found>true</found><classad>`
	)
	for _, tc := range []struct {
		name string
		doc  []byte
		err  string
	}{
		{"dag comment", frame(create+"<!--", repeat("<node"), `--><edge from="START" to="A"/></dag></create-request></message>`), "unknown node"},
		{"classad comment", frame(query+"<!--", repeat("<attr"), `--><attr name="A">1 +</attr></classad></query-response></message>`), `attribute "A"`},
		{"node flood", frame(create, func(i int) string { return fmt.Sprintf(`<node id="n%d" action="x"/>`, i) }, `</dag></create-request></message>`), "exceed the limit"},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := Unmarshal(tc.doc)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("%s: error %v, want one saying %q", tc.name, err, tc.err)
		}
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: a %d-byte frame, %d bytes allocated", tc.name, len(tc.doc), alloc)
		if alloc >= 2*uint64(len(tc.doc)) {
			t.Errorf("%s: decoding a %d-byte frame allocated %d bytes", tc.name, len(tc.doc), alloc)
		}
	}
}
