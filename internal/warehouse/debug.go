package warehouse

import (
	"encoding/json"
	"net/http"
)

// QuarantineEntry is the JSON shape of one quarantined image on the
// debug endpoint.
type QuarantineEntry struct {
	Image  string `json:"image"`
	Reason string `json:"reason"`
}

// DebugState is the /debug/warehouse payload, as DebugHandler serves it
// and vmctl scrub reads it.
type DebugState struct {
	Quarantine []QuarantineEntry `json:"quarantine"`
}

// DebugHandler serves the warehouse's integrity state as JSON — the
// current quarantine list with reasons. Only quarantine state is
// exposed: it lives under its own mutex precisely so out-of-kernel
// readers like this handler never race the kernel-owned image maps.
func (w *Warehouse) DebugHandler() http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		st := DebugState{Quarantine: []QuarantineEntry{}}
		for _, name := range w.Quarantined() {
			reason, _ := w.QuarantineReason(name)
			st.Quarantine = append(st.Quarantine, QuarantineEntry{Image: name, Reason: reason})
		}
		rw.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(rw)
		enc.SetIndent("", "  ")
		enc.Encode(st)
	})
}
