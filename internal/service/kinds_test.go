package service

import (
	"encoding/binary"
	"go/ast"
	"go/parser"
	"go/token"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"vmplants/internal/proto"
)

// requestKinds reads every request kind proto.go declares, so a kind
// added there without a row below fails the table test.
func requestKinds(t *testing.T) map[proto.Kind]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "../proto/proto.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[proto.Kind]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok || vs.Type == nil || len(vs.Values) != 1 {
			return true
		}
		if typ, ok := vs.Type.(*ast.Ident); !ok || typ.Name != "Kind" {
			return true
		}
		if lit, ok := vs.Values[0].(*ast.BasicLit); ok {
			if kind, err := strconv.Unquote(lit.Value); err == nil && strings.HasSuffix(kind, "-request") {
				kinds[proto.Kind(kind)] = true
			}
		}
		return true
	})
	return kinds
}

// TestEveryWireKindIsServed drives each request kind proto declares
// over loopback TCP to the daemon that serves it and wants the kind's
// response back: a kind with no handler case, or one no row drives,
// fails here.
func TestEveryWireKindIsServed(t *testing.T) {
	plantAddr := startPlantDaemon(t, "plantA", 1)
	shopAddr := startShopDaemon(t, map[string]string{"plantA": plantAddr})
	clients := map[string]*proto.Client{}
	for name, addr := range map[string]string{"plant": plantAddr, "shop": shopAddr} {
		c, err := proto.Dial(addr, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[name] = c
	}

	var vmid string // the shop's creation, reused by the rows after it
	forward := createReq(t)
	forward.RequestID = "fwd-cellA-1"
	rows := []struct {
		daemon string
		req    func() *proto.Message
	}{
		{"shop", func() *proto.Message { return &proto.Message{Kind: proto.KindPingRequest, Ping: &proto.PingRequest{}} }},
		{"plant", func() *proto.Message {
			return &proto.Message{Kind: proto.KindEstimateRequest, Estimate: &proto.EstimateRequest{Create: createReq(t)}}
		}},
		{"shop", func() *proto.Message { return &proto.Message{Kind: proto.KindCreateRequest, Create: createReq(t)} }},
		{"shop", func() *proto.Message {
			return &proto.Message{Kind: proto.KindBatchCreateRequest,
				BatchCreate: &proto.BatchCreateRequest{Items: []proto.CreateRequest{*createReq(t)}}}
		}},
		{"shop", func() *proto.Message {
			return &proto.Message{Kind: proto.KindForwardCreateRequest,
				ForwardCreate: &proto.ForwardCreateRequest{Origin: "cellA", Create: forward}}
		}},
		{"plant", func() *proto.Message { return &proto.Message{Kind: proto.KindListRequest, List: &proto.ListRequest{}} }},
		{"shop", func() *proto.Message {
			return &proto.Message{Kind: proto.KindQueryRequest, Query: &proto.QueryRequest{VMID: vmid}}
		}},
		{"shop", func() *proto.Message {
			return &proto.Message{Kind: proto.KindPublishRequest, Publish: &proto.PublishRequest{VMID: vmid, Image: "itest-image"}}
		}},
		{"shop", func() *proto.Message {
			return &proto.Message{Kind: proto.KindLifecycleRequest,
				Lifecycle: &proto.LifecycleRequest{VMID: vmid, Op: proto.LifecycleSuspend}}
		}},
		{"shop", func() *proto.Message {
			return &proto.Message{Kind: proto.KindDestroyRequest, Destroy: &proto.DestroyRequest{VMID: vmid}}
		}},
	}

	kinds := requestKinds(t)
	if len(kinds) == 0 {
		t.Fatal("no request kinds found in proto.go")
	}
	for _, row := range rows {
		req := row.req()
		if !kinds[req.Kind] {
			t.Errorf("row for %s, which proto.go does not declare", req.Kind)
			continue
		}
		delete(kinds, req.Kind)
		want := proto.Kind(strings.TrimSuffix(string(req.Kind), "-request") + "-response")
		resp, err := clients[row.daemon].Call(req)
		if err != nil || resp.Kind != want {
			t.Errorf("%s to the %s daemon: %v, %v; want %s", req.Kind, row.daemon, resp, err, want)
			continue
		}
		if req.Kind == proto.KindCreateRequest {
			vmid = resp.Created.VMID
		}
	}
	for kind := range kinds {
		t.Errorf("%s is declared in proto.go but no daemon is driven with it", kind)
	}
}

// The publish-image kind is gone: a frame that still carries it gets a
// bad-request reply on its own seq, and the connection serves on.
func TestRemovedKindIsRefused(t *testing.T) {
	plantAddr := startPlantDaemon(t, "plantA", 1)
	shopAddr := startShopDaemon(t, map[string]string{"plantA": plantAddr})
	const doc = `<message kind="publish-image-request" seq="7"><publish-image-request>` +
		`<image>derived</image><parent>base</parent><descriptor>&lt;golden-machine/&gt;</descriptor>` +
		`</publish-image-request></message>`
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(doc)))
	frame = append(frame, doc...)
	for name, addr := range map[string]string{"plant": plantAddr, "shop": shopAddr} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		resp, err := proto.ReadMessage(conn)
		if err != nil {
			t.Fatalf("%s daemon: no reply to publish-image-request: %v", name, err)
		}
		if resp.Kind != proto.KindError || resp.Err.Code != proto.CodeBadRequest || resp.Seq != 7 {
			t.Errorf("%s daemon answered %+v (%+v), want a bad-request error on seq 7", name, resp, resp.Err)
		}
		ping := &proto.Message{Kind: proto.KindPingRequest, Seq: 8, Ping: &proto.PingRequest{}}
		if err := proto.WriteMessage(conn, ping); err != nil {
			t.Fatal(err)
		}
		if resp, err := proto.ReadMessage(conn); err != nil || resp.Kind != proto.KindPingResponse || resp.Seq != 8 {
			t.Errorf("%s daemon after the refusal: %+v, %v; want a ping response", name, resp, err)
		}
	}
}
