package proto

import (
	"bytes"
	"io"
	"net"
	"testing"
	"testing/iotest"
	"time"
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
