package proto_test

import (
	"fmt"
	"testing"

	"vmplants/internal/core"
	"vmplants/internal/proto"
	"vmplants/internal/workload"
)

// The estimate-request a shop sends each plant for a tcp workspace: an
// In-VIGO DAG of the client's user, MAC and address, under a traced
// envelope. Its decode is the envelope, the request's strings and the
// DAG (25 allocations of the 32); it cost 40 while the DAG decoder's
// scratch arrays sat on the heap.
func TestEstimateRequestDecodeAllocations(t *testing.T) {
	n := 1_000_004
	g, err := workload.InVigoDAG(fmt.Sprintf("user%07d", n), "00:50:56:0f:42:44", "10.3.0.4")
	if err != nil {
		t.Fatal(err)
	}
	spec := &core.Spec{Name: "lc-1000001-3", RequestID: fmt.Sprintf("req-%d", n),
		Hardware: core.HardwareSpec{Arch: "x86", MemoryMB: 64, DiskMB: 2048},
		Domain:   "ufl.edu", Backend: "vmware", Graph: g}
	doc, err := proto.Marshal(&proto.Message{Kind: proto.KindEstimateRequest, TraceID: 2902535501317668865, ParentSpan: 2902535501317668866,
		Estimate: &proto.EstimateRequest{Create: proto.FromSpec(spec, "")}})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := proto.Unmarshal(doc); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations", allocs)
	if allocs > 32 {
		t.Errorf("decoding a tcp estimate-request: %.0f allocations, want ≤ 32", allocs)
	}
}
