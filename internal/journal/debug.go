package journal

import (
	"encoding/json"
	"net/http"
	"strconv"
)

// DebugRecord is the JSON rendering of one record.
type DebugRecord struct {
	Seq    uint64            `json:"seq"`
	Kind   string            `json:"kind"`
	Key    string            `json:"key"`
	Fields map[string]string `json:"fields,omitempty"`
}

// DebugState is the /debug/journal payload, as DebugHandler serves it
// and vmctl journal reads it.
type DebugState struct {
	Dir      string        `json:"dir"`
	Seq      uint64        `json:"seq"`
	Segments int           `json:"segments"`
	Bytes    int64         `json:"bytes"`
	Good     int           `json:"good_records"`
	Bad      int           `json:"bad_records"`
	Records  []DebugRecord `json:"records"`
}

// DebugHandler serves the journal's state as JSON for vmctl journal:
// verification counts plus the record tail (?n=K bounds it, default
// 50, n=0 means everything).
func (j *Journal) DebugHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := 50
		if q := r.URL.Query().Get("n"); q != "" {
			if v, err := strconv.Atoi(q); err == nil && v >= 0 {
				n = v
			}
		}
		good, bad := j.Verify()
		recs := j.Records()
		if n > 0 && len(recs) > n {
			recs = recs[len(recs)-n:]
		}
		st := DebugState{
			Dir:      j.dir,
			Seq:      j.seq,
			Segments: len(j.segs),
			Bytes:    j.Bytes(),
			Good:     good,
			Bad:      bad,
		}
		for _, rec := range recs {
			st.Records = append(st.Records, DebugRecord{
				Seq: rec.Seq, Kind: string(rec.Kind), Key: rec.Key, Fields: rec.Fields,
			})
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(st)
	})
}
