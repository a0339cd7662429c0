package proto

import (
	"bytes"
	"io"
	"net"
	"testing"
	"testing/iotest"
	"time"

	"vmplants/internal/classad"
	"vmplants/internal/dag"
)

// Serve closes the connections its peers still hold when the listener
// closes, and returns only once their request loops have.
func TestServeClosesItsConnections(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		Serve(l, func(*Message) *Message {
			return &Message{Kind: KindPingResponse, Pong: &PingResponse{Service: "p"}}
		})
	}()
	var clients []*Client
	for i := 0; i < 3; i++ {
		c, err := Dial(l.Addr().String(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Call(ping()); err != nil {
			t.Fatal(err)
		}
		if c.Stale() {
			t.Fatal("open connection reported stale")
		}
		clients = append(clients, c)
	}
	l.Close()
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return with idle connections open")
	}
	for _, c := range clients {
		if !c.Stale() {
			t.Error("connection closed by the server not reported stale")
		}
	}
}

// Checking an idle connection allocates nothing: a shop makes the
// check before each call it sends a plant.
func TestStaleDoesNotAllocate(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		Serve(l, func(*Message) *Message {
			return &Message{Kind: KindPingResponse, Pong: &PingResponse{Service: "p"}}
		})
	}()
	defer func() { l.Close(); <-served }()
	c, err := Dial(l.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(ping()); err != nil {
		t.Fatal(err)
	}
	stale := false
	if n := testing.AllocsPerRun(100, func() { stale = stale || c.Stale() }); n != 0 {
		t.Errorf("Stale: %.1f allocations per check, want 0", n)
	}
	if stale {
		t.Error("open connection reported stale")
	}
}

// A frame reader takes frames that arrive together, or a byte at a
// time, and ends between frames with io.EOF.
func TestFrameReader(t *testing.T) {
	var stream bytes.Buffer
	for seq := uint64(1); seq <= 3; seq++ {
		if err := WriteMessage(&stream, &Message{Kind: KindQueryRequest, Seq: seq, Query: &QueryRequest{VMID: "vm"}}); err != nil {
			t.Fatal(err)
		}
	}
	whole := stream.Bytes()
	for name, r := range map[string]io.Reader{
		"at once":       bytes.NewReader(whole),
		"byte by byte":  iotest.OneByteReader(bytes.NewReader(whole)),
		"data then EOF": iotest.DataErrReader(bytes.NewReader(whole)),
	} {
		fr := frameReader{r: r}
		for seq := uint64(1); seq <= 3; seq++ {
			m, err := fr.next()
			if err != nil || m.Seq != seq {
				t.Fatalf("%s: frame %d: %+v, %v", name, seq, m, err)
			}
		}
		if _, err := fr.next(); err != io.EOF {
			t.Errorf("%s: after the last frame: %v, want io.EOF", name, err)
		}
	}
	fr := frameReader{r: bytes.NewReader(whole[:len(whole)-1])}
	fr.next()
	fr.next()
	if _, err := fr.next(); err == nil || err == io.EOF {
		t.Errorf("truncated last frame: %v", err)
	}
	fr = frameReader{r: bytes.NewReader(whole[:2])}
	if _, err := fr.next(); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated header: %v, want io.ErrUnexpectedEOF", err)
	}
}

// What a message decodes to owns its strings: a frame reader reuses its
// buffer for the next frame, and the DAG and classad read from the
// frame before keep their values.
func TestDecodedValuesOutliveTheFrame(t *testing.T) {
	frame := func(user string) (*Message, *Message) {
		g, err := dag.NewBuilder().
			Add("n-"+user, dag.Action{Op: "create-user", Params: map[string]string{"name": user}}).
			Add("m-"+user, dag.Action{Op: "mount-fs", Target: dag.Host, Params: map[string]string{"source": "nfs:/" + user}}, "n-"+user).
			Build()
		if err != nil {
			t.Fatal(err)
		}
		ad := classad.New().SetString("Owner", user).SetString(user, "v-"+user).SetInt("MemoryMB", 64)
		return &Message{Kind: KindCreateRequest, Seq: 1, Create: &CreateRequest{Name: user, Arch: "x86", Graph: g}},
			&Message{Kind: KindQueryResponse, Seq: 2, Queried: &QueryResponse{VMID: "vm-" + user, Found: true, Ad: ad}}
	}
	var stream bytes.Buffer
	create, query := frame("aaaa")
	later, laterQuery := frame("bbbb")
	for _, m := range []*Message{create, query, later, laterQuery} {
		if err := WriteMessage(&stream, m); err != nil {
			t.Fatal(err)
		}
	}
	fr := frameReader{r: iotest.HalfReader(&stream)}
	var got [2]*Message
	for i := range 4 {
		m, err := fr.next()
		if err != nil {
			t.Fatal(err)
		}
		if i < 2 {
			got[i] = m
		}
	}
	if a, b := got[0].Create.Graph.AppendXML(nil), create.Create.Graph.AppendXML(nil); !bytes.Equal(a, b) {
		t.Errorf("DAG after the buffer was reused:\n got: %s\nwant: %s", a, b)
	}
	if got[0].Create.Name != "aaaa" {
		t.Errorf("name after the buffer was reused: %q", got[0].Create.Name)
	}
	if a, b := got[1].Queried.Ad.AppendXML(nil), query.Queried.Ad.AppendXML(nil); !bytes.Equal(a, b) {
		t.Errorf("classad after the buffer was reused:\n got: %s\nwant: %s", a, b)
	}
}
