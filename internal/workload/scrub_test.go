package workload

import (
	"testing"
)

// A clean system — no fault rules armed — must sail through the same
// pipeline with zero detections, zero quarantines, and zero repair
// traffic: the integrity layer is pure verification overhead when
// nothing is wrong.
func TestScrubCleanRunDetectsNothing(t *testing.T) {
	res, err := scrubStream(11, streamParams{plants: 2, requests: 20, users: 6, derivedBudgetMB: 375}, corruption{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Errorf("%d requests failed on a clean system", res.Failed)
	}
	if res.Detected != 0 || res.Quarantines != 0 || res.Repairs != 0 {
		t.Errorf("clean run detected=%d quarantined=%d repaired=%d, want all zero",
			res.Detected, res.Quarantines, res.Repairs)
	}
	if len(res.DirtyAtEnd) != 0 || res.InQuarantine != 0 || !res.SeedsIntact {
		t.Errorf("clean run end audit: dirty=%v quarantine=%d seeds=%v",
			res.DirtyAtEnd, res.InQuarantine, res.SeedsIntact)
	}
}
