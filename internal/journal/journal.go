// Package journal is the durable event log under the control plane's
// state: an append-only, per-record-checksummed, segment-rotated log
// layered on a storage.Volume, replayed on daemon restart. Every state
// transition that matters — creation intents and commits, image
// publishes and retirements, quarantine entries, route changes, plant
// crashes — is appended as a typed record; a restarted daemon replays
// the log to rebuild its soft state, then reconciles against the world
// (journal-replay-then-reconcile, replacing best-effort re-scrape).
//
// Durability follows fsync semantics deterministically under the sim
// kernel: Append buffers a record and charges the device's write cost,
// Sync makes everything appended so far durable, and Crash — a kill -9
// — drops the unsynced suffix, leaving a torn remnant of the first
// unsynced record exactly the way a half-flushed page does. Replay
// verifies each record's checksum and truncates the log at the first
// bad record, surfacing the damage through the journal.torn_tails
// counter.
//
// The simulated Volume carries file metadata, not bytes, so the
// Journal keeps its own encoded record bytes as the model of on-disk
// content — the same split the plant uses for host state — while every
// append and fsync pays real virtual time through the volume's device.
package journal

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"vmplants/internal/sim"
	"vmplants/internal/storage"
	"vmplants/internal/telemetry"
)

// Kind names one record type.
type Kind string

// The record taxonomy. Shop records track the creation protocol and
// routing; warehouse records track the catalog and quarantine set;
// plant records track hosted VMs across daemon crashes.
const (
	// CreationIntent is written (and synced) before a creation is
	// dispatched to any plant: the write-ahead half of exactly-once.
	CreationIntent Kind = "creation-intent"
	// CreationCommit records the plant that holds the finished VM; it
	// is synced before the client is answered.
	CreationCommit Kind = "creation-commit"
	// CreationAbort closes an intent whose creation failed permanently.
	CreationAbort Kind = "creation-abort"
	// CreationForward closes an intent that was re-auctioned to a peer
	// shop: the VM lives in another cell under the peer's own VMID. The
	// record carries the peer's name and the remote VMID, so replay
	// rebuilds the cross-cell forwarding table the way commits rebuild
	// local routes.
	CreationForward Kind = "creation-forward"
	// ImagePublish records a (seed or derived) image entering the
	// warehouse catalog.
	ImagePublish Kind = "image-publish"
	// ImageRetire records an image leaving the catalog — capacity
	// retirement, operator removal, or a scrubber giving up.
	ImageRetire Kind = "image-retire"
	// QuarantineEnter takes an image out of matching.
	QuarantineEnter Kind = "quarantine-enter"
	// QuarantineExit returns a repaired image to service.
	QuarantineExit Kind = "quarantine-exit"
	// RouteChange records a VM's route moving or being re-learned. The
	// record's "endpoint" field says what kind of endpoint now serves
	// the VM — "plant" (default when absent, for records written before
	// federation) or "peer" for a peer shop in another cell, in which
	// case "peer" names the shop and "remote" carries the VMID the peer
	// knows the VM by.
	RouteChange Kind = "route-change"
	// RouteDrop records a VM leaving the shop's routing table (destroy).
	RouteDrop Kind = "route-drop"
	// PlantCrash records an observed plant daemon death.
	PlantCrash Kind = "plant-crash"
	// PlantDrainBegin is written (and synced) before any drain side
	// effect: the named plant stops winning bids and its VMs are being
	// migrated away. A restart that replays this record without a
	// matching PlantRetired resumes the drain instead of routing new
	// work to the plant.
	PlantDrainBegin Kind = "plant-drain-begin"
	// PlantRetired closes a drain: the plant has left the fleet for
	// good. Replay and restart reconciliation must never route a
	// creation to a retired plant.
	PlantRetired Kind = "plant-retired"
	// PlantRecover records a plant daemon restart with the number of
	// VMs its information system was rebuilt from.
	PlantRecover Kind = "plant-recover"
	// VMCreated records a VM landing in a plant's information system.
	VMCreated Kind = "vm-created"
	// VMCollected records a VM leaving a plant (collect or migration).
	VMCollected Kind = "vm-collected"
	// ExtentPut records one reference taken on a content-addressed
	// extent in the warehouse's extent store (key = content key, hex);
	// "size" and "sum" carry what replay needs to rebuild the entry.
	ExtentPut Kind = "extent-put"
	// ExtentRelease records one reference released; a key whose puts and
	// releases balance has left the store (and the volume).
	ExtentRelease Kind = "extent-release"
)

// Endpoint kinds carried in a route-change record's "endpoint" field.
// Records written before federation carry no endpoint field; readers
// treat that as EndpointPlant.
const (
	// EndpointPlant marks a route served by a local plant.
	EndpointPlant = "plant"
	// EndpointPeer marks a route served by a peer shop in another cell
	// (the record's "peer" field names it, "remote" carries the VMID
	// the peer knows the VM by).
	EndpointPeer = "peer"
)

// Record is one journal entry. Key is the record's primary subject — a
// VMID, an image name, a plant name — and Fields carry the rest in
// deterministic order.
type Record struct {
	Seq    uint64
	Kind   Kind
	Key    string
	Fields map[string]string
}

// Field returns a named field ("" when absent).
func (r Record) Field(name string) string { return r.Fields[name] }

// DefaultSegmentBytes is the rotation threshold: an active segment that
// reaches it is closed and a new one opened.
const DefaultSegmentBytes = 16 << 10

// DefaultSyncLatency is the virtual-time cost of one fsync barrier on
// the journal device (a small battery-backed write hitting the platter).
const DefaultSyncLatency = 2 * time.Millisecond

// segment is one on-volume log file: a sequence of encoded records,
// plus possibly a torn trailing remnant left by a crash.
type segment struct {
	path  string
	recs  [][]byte
	bytes int64
}

// Journal is one daemon's event log on a volume.
type Journal struct {
	vol *storage.Volume
	dir string

	// SegmentBytes is the rotation threshold (DefaultSegmentBytes when
	// zero at Open).
	SegmentBytes int64
	// SyncLatency is the per-Sync fsync cost.
	SyncLatency time.Duration

	seq      uint64
	segs     []*segment
	segSeq   int // segment name counter, monotonic across rotations
	unsynced int // records appended since the last Sync

	mAppends  *telemetry.Counter
	mBytes    *telemetry.Counter
	mSyncs    *telemetry.Counter
	mReplays  *telemetry.Counter
	mReplayed *telemetry.Counter
	mTorn     *telemetry.Counter
	gSegments *telemetry.Gauge
	gRecords  *telemetry.Gauge
}

// Open creates a journal rooted at dir on the volume. The returned
// Journal models the daemon's log directory: the Go object holds the
// record bytes (the volume carries no content), the volume namespace
// holds the segment files and pays the device costs.
func Open(vol *storage.Volume, dir string) *Journal {
	return &Journal{
		vol:          vol,
		dir:          strings.TrimSuffix(dir, "/"),
		SegmentBytes: DefaultSegmentBytes,
		SyncLatency:  DefaultSyncLatency,
	}
}

// SetTelemetry wires the journal's instruments ("journal.appends",
// "journal.bytes", "journal.syncs", "journal.replays",
// "journal.replayed_records", "journal.torn_tails",
// "journal.segments", "journal.records"). Passing nil detaches them.
func (j *Journal) SetTelemetry(h *telemetry.Hub) {
	j.mAppends = h.Counter("journal.appends")
	j.mBytes = h.Counter("journal.bytes")
	j.mSyncs = h.Counter("journal.syncs")
	j.mReplays = h.Counter("journal.replays")
	j.mReplayed = h.Counter("journal.replayed_records")
	j.mTorn = h.Counter("journal.torn_tails")
	j.gSegments = h.Gauge("journal.segments")
	j.gRecords = h.Gauge("journal.records")
}

// Dir returns the journal's directory on the volume.
func (j *Journal) Dir() string { return j.dir }

// segPath names one segment file.
func (j *Journal) segPath(n int) string {
	return fmt.Sprintf("%s/seg-%06d.log", j.dir, n)
}

// active returns the open tail segment, rotating first when the
// current one is full (or none exists yet).
func (j *Journal) active() *segment {
	if n := len(j.segs); n > 0 && j.segs[n-1].bytes < j.SegmentBytes {
		return j.segs[n-1]
	}
	// Rotation is only legal at a sync boundary; Append syncs an
	// overflowing tail before rotating, so unsynced is always 0 here.
	j.segSeq++
	s := &segment{path: j.segPath(j.segSeq)}
	j.vol.WriteMeta(s.path, 0)
	j.segs = append(j.segs, s)
	j.gSegments.Set(int64(len(j.segs)))
	return s
}

// encode renders a record as one checksummed line:
//
//	seq=N kind=K key="..." f1="..." ... #<fnv64a-hex>\n
//
// Field keys are sorted, so encoding is deterministic; the checksum
// covers everything before " #".
func encode(r Record) []byte {
	var stack [16]string
	keys := stack[:0]
	n := len("seq=18446744073709551615 kind= key=\"\" #0123456789abcdef\n") + len(r.Kind) + len(r.Key)
	for k, v := range r.Fields {
		keys = append(keys, k)
		n += len(` =""`) + len(k) + len(v)
	}
	slices.Sort(keys)
	b := make([]byte, 0, n) // exact unless a value needs escaping
	b = append(b, "seq="...)
	b = strconv.AppendUint(b, r.Seq, 10)
	b = append(b, " kind="...)
	b = append(b, r.Kind...)
	b = append(b, " key="...)
	b = strconv.AppendQuote(b, r.Key)
	for _, k := range keys {
		b = append(b, ' ')
		b = append(b, k...)
		b = append(b, '=')
		b = strconv.AppendQuote(b, r.Fields[k])
	}
	sum := fnv64a(b)
	b = append(b, " #"...)
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, "0123456789abcdef"[sum>>shift&0xf])
	}
	return append(b, '\n')
}

// fnv64a is hash/fnv's New64a over b, without the hasher.
func fnv64a[T string | []byte](b T) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(b); i++ {
		h = (h ^ uint64(b[i])) * 1099511628211
	}
	return h
}

// decode parses and verifies one encoded record.
func decode(b []byte) (Record, error) {
	line := strings.TrimSuffix(string(b), "\n")
	i := strings.LastIndex(line, " #")
	if i < 0 || len(line)-i-2 != 16 {
		return Record{}, fmt.Errorf("journal: no checksum")
	}
	payload, sumHex := line[:i], line[i+2:]
	want, err := strconv.ParseUint(sumHex, 16, 64)
	if err != nil {
		return Record{}, fmt.Errorf("journal: bad checksum field: %w", err)
	}
	if fnv64a(payload) != want {
		return Record{}, fmt.Errorf("journal: checksum mismatch")
	}
	var r Record
	rest := payload
	for len(rest) > 0 {
		rest = strings.TrimLeft(rest, " ")
		eq := strings.Index(rest, "=")
		if eq < 0 {
			return Record{}, fmt.Errorf("journal: malformed record")
		}
		k := rest[:eq]
		rest = rest[eq+1:]
		var v string
		quoted := strings.HasPrefix(rest, `"`)
		if quoted {
			var err error
			v, err = strconv.Unquote(quotedPrefix(rest))
			if err != nil {
				return Record{}, fmt.Errorf("journal: bad quoted value: %w", err)
			}
			rest = rest[len(quotedPrefix(rest)):]
		} else {
			sp := strings.Index(rest, " ")
			if sp < 0 {
				sp = len(rest)
			}
			v, rest = rest[:sp], rest[sp:]
		}
		switch k {
		case "seq":
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return Record{}, err
			}
			r.Seq = n
		case "kind":
			// encode writes kinds bare; a quoted one could hold a space
			// or a quote and would not survive being written back.
			if quoted {
				return Record{}, fmt.Errorf("journal: quoted kind")
			}
			r.Kind = Kind(v)
		case "key":
			r.Key = v
		default:
			if r.Fields == nil {
				r.Fields = make(map[string]string)
			}
			r.Fields[k] = v
		}
	}
	return r, nil
}

// quotedPrefix returns the leading Go-quoted string of s (s starts
// with a double quote).
func quotedPrefix(s string) string {
	for i := 1; i < len(s); i++ {
		if s[i] == '\\' {
			i++
			continue
		}
		if s[i] == '"' {
			return s[:i+1]
		}
	}
	return s
}

// Append assigns the next sequence number, encodes the record, and
// buffers it on the active segment, paying the device's write cost. The
// record is NOT durable until Sync; a crash in between leaves at most a
// torn remnant. A nil proc appends without charging — setup-time events
// written outside the kernel (seed image publishes) — and such appends
// are treated as synced, since nothing racing them can crash.
func (j *Journal) Append(p *sim.Proc, r Record) Record {
	// "seq", "kind" and "key" are wire keys of the record envelope; a
	// field named after one would silently overwrite the envelope on
	// decode. That is a programming error, not a runtime condition.
	for _, reserved := range []string{"seq", "kind", "key"} {
		if _, clash := r.Fields[reserved]; clash {
			panic(fmt.Sprintf("journal: field name %q is reserved", reserved))
		}
	}
	// Rotating mid-unsynced-batch would tear the batch across files;
	// real loggers sync before rolling, and so does this one.
	if n := len(j.segs); n > 0 && j.segs[n-1].bytes >= j.SegmentBytes && j.unsynced > 0 {
		j.Sync(p)
	}
	j.seq++
	r.Seq = j.seq
	b := encode(r)
	seg := j.active()
	seg.recs = append(seg.recs, b)
	seg.bytes += int64(len(b))
	// The volume tracks the segment file's size; Append charges the
	// device for the new suffix (free for nil procs).
	_, _ = j.vol.Append(p, seg.path, int64(len(b)), 1)
	if p != nil {
		j.unsynced++
	}
	j.mAppends.Inc()
	j.mBytes.Add(int64(len(b)))
	j.gRecords.Set(int64(j.recordCount()))
	return r
}

// Sync makes every buffered record durable, paying one fsync barrier of
// virtual time (nil procs pay nothing). A no-op when nothing is
// buffered.
func (j *Journal) Sync(p *sim.Proc) {
	if j.unsynced == 0 {
		return
	}
	if p != nil && j.SyncLatency > 0 {
		p.Sleep(j.SyncLatency)
	}
	j.unsynced = 0
	j.mSyncs.Inc()
}

// AppendSync appends one record and makes it durable — the write-ahead
// pattern for records that must survive before the caller proceeds.
func (j *Journal) AppendSync(p *sim.Proc, r Record) Record {
	out := j.Append(p, r)
	j.Sync(p)
	return out
}

// Crash models kill -9 between fsyncs: the synced prefix survives
// byte-for-byte; of the unsynced suffix, the first record remains as a
// torn remnant (half its bytes, checksum now impossible) and the rest
// never reached the disk at all. Deterministic, so chaos runs replay
// bit-for-bit.
func (j *Journal) Crash() {
	if j.unsynced == 0 {
		return
	}
	seg := j.segs[len(j.segs)-1]
	keep := len(seg.recs) - j.unsynced
	torn := seg.recs[keep]
	cut := len(torn) / 2
	if cut == 0 {
		cut = 1
	}
	var dropped int64
	for _, b := range seg.recs[keep:] {
		dropped += int64(len(b))
	}
	seg.recs = append(seg.recs[:keep:keep], torn[:cut])
	seg.bytes += int64(cut) - dropped
	_ = j.vol.Truncate(seg.path, seg.bytes)
	j.seq -= uint64(j.unsynced)
	j.unsynced = 0
	j.gRecords.Set(int64(j.recordCount()))
}

func (j *Journal) recordCount() int {
	n := 0
	for _, s := range j.segs {
		n += len(s.recs)
	}
	return n
}

// ReplayStats reports what a replay found.
type ReplayStats struct {
	// Records is how many valid records were replayed.
	Records int
	// Segments is how many segment files were scanned.
	Segments int
	// TornTails is how many damaged records were found and truncated
	// (at most one per replay: scanning stops at the first).
	TornTails int
	// TruncatedBytes is how much damaged tail was discarded.
	TruncatedBytes int64
}

// Replay scans the log from the beginning, verifying every record's
// checksum and calling fn for each valid one in order. At the first
// record that fails to verify — a torn tail from a crash, or a
// bit-flipped body — the log is truncated to the consistent prefix:
// the damaged record, the rest of its segment, and every later segment
// are discarded, so subsequent appends extend the good prefix. The
// journal's sequence counter resumes from the last valid record.
func (j *Journal) Replay(fn func(Record) error) (ReplayStats, error) {
	var st ReplayStats
	st.Segments = len(j.segs)
	j.mReplays.Inc()
	var lastSeq uint64
	for si, seg := range j.segs {
		for ri, b := range seg.recs {
			rec, err := decode(b)
			if err != nil {
				st.TornTails++
				st.TruncatedBytes += j.truncateAt(si, ri)
				j.mTorn.Inc()
				j.seq = lastSeq
				j.unsynced = 0
				j.gRecords.Set(int64(j.recordCount()))
				j.mReplayed.Add(int64(st.Records))
				return st, nil
			}
			lastSeq = rec.Seq
			if fn != nil {
				if ferr := fn(rec); ferr != nil {
					return st, ferr
				}
			}
			st.Records++
		}
	}
	j.seq = lastSeq
	j.unsynced = 0
	j.mReplayed.Add(int64(st.Records))
	return st, nil
}

// truncateAt discards segment si's records from index ri on, plus every
// later segment, returning the discarded byte count. The truncated
// segment stays the active tail (possibly empty — the crash-after-
// rotate shape), so appends continue the consistent prefix.
func (j *Journal) truncateAt(si, ri int) int64 {
	var dropped int64
	seg := j.segs[si]
	for _, b := range seg.recs[ri:] {
		dropped += int64(len(b))
	}
	seg.recs = seg.recs[:ri:ri]
	seg.bytes -= dropped
	_ = j.vol.Truncate(seg.path, seg.bytes)
	for _, s := range j.segs[si+1:] {
		dropped += s.bytes
		if j.vol.Exists(s.path) {
			_ = j.vol.Delete(s.path)
		}
	}
	j.segs = j.segs[:si+1]
	j.gSegments.Set(int64(len(j.segs)))
	return dropped
}

// Records decodes and returns every currently valid record, stopping at
// the first damaged one — the read-only scan behind the debug endpoint
// and vmctl journal. It does not mutate the log.
func (j *Journal) Records() []Record {
	var out []Record
	for _, seg := range j.segs {
		for _, b := range seg.recs {
			rec, err := decode(b)
			if err != nil {
				return out
			}
			out = append(out, rec)
		}
	}
	return out
}

// Verify scans the whole log without mutating it and reports how many
// records verify and how many are damaged.
func (j *Journal) Verify() (good, bad int) {
	for _, seg := range j.segs {
		for _, b := range seg.recs {
			if _, err := decode(b); err != nil {
				bad++
			} else {
				good++
			}
		}
	}
	return good, bad
}

// Seq returns the last assigned sequence number.
func (j *Journal) Seq() uint64 { return j.seq }

// SegmentCount reports how many segment files the log spans.
func (j *Journal) SegmentCount() int { return len(j.segs) }

// Bytes reports the log's current on-volume size.
func (j *Journal) Bytes() int64 {
	var n int64
	for _, s := range j.segs {
		n += s.bytes
	}
	return n
}

// CorruptRecord flips bytes in the middle of one stored record — the
// bit-rot injection the torn-tail tests (and corruption experiments)
// use. Indexes are (segment, record) from the start of the log.
func (j *Journal) CorruptRecord(seg, rec int) error {
	if seg < 0 || seg >= len(j.segs) {
		return fmt.Errorf("journal: no segment %d", seg)
	}
	s := j.segs[seg]
	if rec < 0 || rec >= len(s.recs) {
		return fmt.Errorf("journal: segment %d has no record %d", seg, rec)
	}
	b := s.recs[rec]
	b[len(b)/2] ^= 0x5a
	return nil
}

// TruncateTail shortens the final record's bytes to n, simulating a
// partially flushed page discovered on restart.
func (j *Journal) TruncateTail(n int) error {
	if len(j.segs) == 0 {
		return fmt.Errorf("journal: empty")
	}
	seg := j.segs[len(j.segs)-1]
	if len(seg.recs) == 0 {
		return fmt.Errorf("journal: active segment empty")
	}
	last := seg.recs[len(seg.recs)-1]
	if n < 0 || n >= len(last) {
		return fmt.Errorf("journal: truncate to %d of %d", n, len(last))
	}
	seg.bytes -= int64(len(last) - n)
	seg.recs[len(seg.recs)-1] = last[:n]
	_ = j.vol.Truncate(seg.path, seg.bytes)
	return nil
}

// AppendEmptySegment force-rotates to a fresh, empty segment — the
// crash-right-after-rotate shape the torn-tail tests cover.
func (j *Journal) AppendEmptySegment() {
	j.Sync(nil)
	j.segSeq++
	s := &segment{path: j.segPath(j.segSeq)}
	j.vol.WriteMeta(s.path, 0)
	j.segs = append(j.segs, s)
	j.gSegments.Set(int64(len(j.segs)))
}
