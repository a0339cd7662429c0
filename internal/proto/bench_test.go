package proto

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"testing"

	"vmplants/internal/classad"
)

// raceEnabled reports a build with the race detector (race_test.go).
var raceEnabled bool

func BenchmarkCreateRequestRoundTrip(b *testing.B) { benchRoundTrip(b, sampleCreate(b)) }

// The most frequent message on the wire: 10 of the 36 in a creation's
// lifecycle over tcp.
func BenchmarkQueryResponseRoundTrip(b *testing.B) { benchRoundTrip(b, vmQueryResponse()) }

// The bid reply: every plant sends one per bidding round, four rounds'
// worth per creation over tcp.
func BenchmarkEstimateResponseRoundTrip(b *testing.B) { benchRoundTrip(b, estimateResponse()) }

// queryResponse answers a query with a 21-attribute ad that carries a
// Requirements expression, which no plant sends: what the classad
// parser adds to a decode.
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

// vmQueryResponse answers a query with the ad a plant serves for an
// In-VIGO workspace: the creation's sixteen attributes, one per action
// output, and the uptime a query adds.
func vmQueryResponse() *Message {
	ad := classad.New().
		SetString("VMID", "vm-shop-17").SetString("Name", "lc-1000001-3").SetString("State", "running").
		SetInt("MemoryMB", 64).SetInt("DiskMB", 2048).SetString("Arch", "x86").SetString("Domain", "ufl.edu").
		SetString("Plant", "plant2").SetString("Backend", "vmware").SetString("HostOnlyNetwork", "plant2/vmnet3").
		SetString("GoldenImage", "invigo-64-vmware").SetInt("MatchedOps", 3).SetReal("CloneSecs", 16.47597397).
		SetInt("CreatedAt", 1287).SetString("IP", "10.3.0.4").SetString("MAC", "00:50:56:00:00:11").
		SetString("Out_ip", "10.3.0.4").SetString("Out_mac", "00:50:56:0f:42:44").SetString("Out_os", "redhat-8.0").
		SetString("Out_user", "user1000004").SetInt("UptimeSecs", 12)
	return &Message{Kind: KindQueryResponse, Seq: 7, TraceID: 99, ParentSpan: 3,
		Queried: &QueryResponse{VMID: "vm-shop-17", Found: true, Ad: ad}}
}

// estimateResponse is a plant's bid with its 10-attribute resource ad,
// three golden images in its GoldenImages list.
func estimateResponse() *Message {
	ad := classad.New().
		SetString("Plant", "plant2").SetString("Arch", "x86").SetInt("FreeMemoryMB", 3840).
		SetInt("VMs", 4).SetInt("MaxVMs", 32).SetInt("FreeNetworks", 60).SetInt("CloneSlots", 4).
		SetInt("InflightClones", 1).SetBool("Draining", false).
		SetValue("GoldenImages", classad.Strings("invigo-256-vmware", "invigo-32-vmware", "invigo-64-vmware"))
	return &Message{Kind: KindEstimateResponse, Seq: 7, TraceID: 99, ParentSpan: 3,
		Bid: &EstimateResponse{Plant: "plant2", Cost: 12.5, Ad: ad}}
}

// A bid's resource ad writes its image list without rendering it to a
// string first, and reads it back without the classad parser: the
// encode is the one copy of the document (10 allocations before), the
// decode six (29 before, 13 of them the list's parse) and 1 112 B (1 480
// while an attribute took 88 bytes).
func TestEstimateResponseAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the measured path")
	}
	m := estimateResponse()
	doc, err := Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	enc := testing.AllocsPerRun(100, func() {
		if _, err := Marshal(m); err != nil {
			t.Fatal(err)
		}
	})
	dec, size := allocated(100, func() {
		if _, err := Unmarshal(doc); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("encode %.0f, decode %.0f allocations and %.0f B", enc, dec, size)
	if enc > 1 || dec > 6 || size > 1112 {
		t.Errorf("an estimate response: encode %.0f allocations (want ≤ 1), decode %.0f and %.0f B (want ≤ 6 and ≤ 1112 B)", enc, dec, size)
	}
}

// A query response's ad costs one string for all its names and string
// values, not one allocation per value (it cost 57 before), and its
// envelope and body are one block (25 before that and the pooled
// unescape buffer); most of the rest is parsing Requirements, whose
// tokens stay on the stack (5 allocations saved; the expression's box
// costs 1, and the ad took 20 before both).
func TestQueryResponseDecodeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the measured path")
	}
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
	if n > 16 {
		t.Errorf("decoding a 21-attribute query response: %.0f allocations, want ≤ 16", n)
	}
}

// The query response a plant actually sends: all its values are
// literals, so the decode is the envelope and body, the ad's attribute
// slice and its one string of names and values, and nothing else: its
// 21 attributes are a 1 280 B table (2 048 B while one took 88 bytes).
func TestVMQueryResponseDecodeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the measured path")
	}
	doc, err := Marshal(vmQueryResponse())
	if err != nil {
		t.Fatal(err)
	}
	n, size := allocated(100, func() {
		if _, err := Unmarshal(doc); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations, %.0f B", n, size)
	if n > 5 || size > 1872 {
		t.Errorf("decoding a plant's 21-attribute query response: %.0f allocations and %.0f B, want ≤ 5 and ≤ 1872", n, size)
	}
}

// allocated is testing.AllocsPerRun's count and the bytes beside it: the
// heap allocations and bytes one run of f makes, averaged over runs. GC
// is off for the window: a cycle empties the pooled buffers f reuses, so
// one that lands mid-measurement makes f allocate them again. No GC is
// forced first, for the same reason.
func allocated(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
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
