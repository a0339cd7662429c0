package proto

import (
	"bytes"
	"testing"

	"vmplants/internal/classad"
)

func BenchmarkCreateRequestRoundTrip(b *testing.B) { benchRoundTrip(b, sampleCreate(b)) }

// The most frequent message on the wire: 10 of the 36 in a creation's
// lifecycle over tcp.
func BenchmarkQueryResponseRoundTrip(b *testing.B) { benchRoundTrip(b, queryResponse()) }

// queryResponse answers a query with a plant's 21-attribute VM ad.
func queryResponse() *Message {
	ad := classad.New().
		SetString("VMID", "vm-shop-17").SetString("Name", "workspace-17").SetString("State", "running").
		SetString("Plant", "plant2").SetString("Host", "node00").SetString("Arch", "x86").
		SetInt("MemoryMB", 64).SetInt("DiskMB", 2048).SetString("Domain", "ufl.edu").
		SetString("Backend", "vmware").SetString("IP", "10.2.0.17").SetString("MAC", "00:50:56:00:00:11").
		SetString("GoldenImage", "invigo-64-vmware").SetInt("MatchedOps", 6).SetInt("ExecutedOps", 3).
		SetReal("CloneSecs", 31.25).SetReal("ConfigSecs", 9.5).SetReal("CreateSecs", 40.75).
		SetInt("CreatedAt", 1287).SetBool("Lazy", true).
		Set("Requirements", classad.MustParseExpr(`other.MemoryMB >= 64 && other.Arch == "x86"`))
	return &Message{Kind: KindQueryResponse, Seq: 7, TraceID: 99, ParentSpan: 3,
		Queried: &QueryResponse{VMID: "vm-shop-17", Found: true, Ad: ad}}
}

// A query response's ad costs one string for all its names and string
// values, not one allocation per value (it cost 57 before).
func TestQueryResponseDecodeAllocations(t *testing.T) {
	doc, err := Marshal(queryResponse())
	if err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(100, func() {
		if _, err := Unmarshal(doc); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations", n)
	if n > 30 {
		t.Errorf("decoding a 21-attribute query response: %.0f allocations, want ≤ 30", n)
	}
}

func benchRoundTrip(b *testing.B, m *Message) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadMessage(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
