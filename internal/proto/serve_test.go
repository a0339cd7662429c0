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
// buffer for the next frame, every decode borrows its scanner's unescape
// buffer from one pool, and the DAG, classad and error detail read
// before keep their values. Each frame holds text that must be
// unescaped — a DAG parameter with '&', a classad string with '<', an
// error detail with both — so its values pass through the pooled buffer.
func TestDecodedValuesOutliveTheFrame(t *testing.T) {
	frame := func(user string) []*Message {
		g, err := dag.NewBuilder().
			Add("n-"+user, dag.Action{Op: "create-user", Params: map[string]string{"name": user + " & co"}}).
			Add("m-"+user, dag.Action{Op: "mount-fs", Target: dag.Host, Params: map[string]string{"source": "nfs:/" + user}}, "n-"+user).
			Build()
		if err != nil {
			t.Fatal(err)
		}
		ad := classad.New().SetString("Owner", user+" <admin>").SetString(user, "v-"+user).SetInt("MemoryMB", 64)
		return []*Message{
			{Kind: KindCreateRequest, Seq: 1, Create: &CreateRequest{Name: user, Arch: "x86", Graph: g}},
			{Kind: KindQueryResponse, Seq: 2, Queried: &QueryResponse{VMID: "vm-" + user, Found: true, Ad: ad}},
			Errorf(3, CodeInternal, "%s: <%s> & more", user, user),
		}
	}
	first, later := frame("aaaa"), frame("bbbb")
	check := func(how string, got []*Message) {
		t.Helper()
		for i, m := range got {
			a, err := Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			if b, _ := Marshal(first[i]); !bytes.Equal(a, b) {
				t.Errorf("%s, %s after later decodes:\n got: %s\nwant: %s", how, first[i].Kind, a, b)
			}
		}
	}

	// One frame reader, whose buffer the later frames overwrite.
	var stream bytes.Buffer
	for _, m := range append(append([]*Message(nil), first...), later...) {
		if err := WriteMessage(&stream, m); err != nil {
			t.Fatal(err)
		}
	}
	fr := frameReader{r: iotest.HalfReader(&stream)}
	var got []*Message
	for range len(first) + len(later) {
		m, err := fr.next()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) < len(first) {
			got = append(got, m)
		}
	}
	check("one frame reader", got)

	// Separate Unmarshal calls, whose documents are cleared once read.
	unmarshal := func(m *Message) *Message {
		doc, err := Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Unmarshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		clear(doc)
		return out
	}
	got = got[:0]
	for _, m := range first {
		got = append(got, unmarshal(m))
	}
	for _, m := range later {
		unmarshal(m)
	}
	check("separate Unmarshal calls", got)
}
