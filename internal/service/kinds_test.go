package service

import (
	"encoding/binary"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"net"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"vmplants/internal/proto"
)

// requestKinds reads every request kind proto.go declares, with the name
// of its constant, so a kind added there without a row below fails the
// table test and one no product code sends fails TestEveryWireKindIsSent.
func requestKinds(t *testing.T) map[proto.Kind]string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "../proto/proto.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[proto.Kind]string{}
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
				kinds[proto.Kind(kind)] = vs.Names[0].Name
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
			return &proto.Message{Kind: proto.KindForwardCreateRequest,
				ForwardCreate: &proto.ForwardCreateRequest{Origin: "cellA", Create: forward}}
		}},
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
		if _, ok := kinds[req.Kind]; !ok {
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

// TestEveryWireKindIsSent is the client half of the table test: a
// request kind only daemons serve, and no product code sends, is dead
// protocol. Some non-test Go file outside internal/proto, serve.go and
// the bench module must name each kind's constant.
func TestEveryWireKindIsSent(t *testing.T) {
	kinds := requestKinds(t)
	sent := map[string]bool{}
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			switch rel {
			case ".git", "bench", filepath.Join("internal", "proto"):
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") ||
			rel == filepath.Join("internal", "service", "serve.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "proto" {
					sent[sel.Sel.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for kind, name := range kinds {
		if !sent[name] {
			t.Errorf("%s is declared in proto.go but no product code sends proto.%s", kind, name)
		}
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
