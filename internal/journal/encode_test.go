package journal

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// encodeFmt is encode as it was written with fmt: the oracle the
// appending encoder must match byte for byte, since the bytes are what
// the checksum, the segment sizes and every journal golden see.
func encodeFmt(r Record) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "seq=%d kind=%s key=%q", r.Seq, r.Kind, r.Key)
	keys := make([]string, 0, len(r.Fields))
	for k := range r.Fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%q", k, r.Fields[k])
	}
	payload := b.String()
	h := fnv.New64a()
	h.Write([]byte(payload))
	return []byte(fmt.Sprintf("%s #%016x\n", payload, h.Sum64()))
}

// randBytes draws a string of up to max bytes: arbitrary bytes (so
// invalid UTF-8, quotes, control characters) or, half the time, text
// that looks like what the control plane writes.
func randBytes(rng *rand.Rand, max int) string {
	b := make([]byte, rng.Intn(max+1))
	if rng.Intn(2) == 0 {
		rng.Read(b)
		return string(b)
	}
	const plain = `abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_./:<> "\é`
	for i := range b {
		b[i] = plain[rng.Intn(len(plain))]
	}
	return string(b)
}

func TestEncodeMatchesFmtOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	seqs := []uint64{0, 1, 9, 10, 1<<32 - 1, 1 << 32, 1<<63 - 1, 1 << 63, 1<<64 - 1}
	for i := 0; i < 120_000; i++ {
		r := Record{Seq: rng.Uint64() >> rng.Intn(64), Kind: Kind(randBytes(rng, 24)), Key: randBytes(rng, 40)}
		if i < len(seqs) {
			r.Seq = seqs[i]
		}
		// 0–20 fields: past the encoder's on-stack key array too.
		if n := rng.Intn(21); n > 0 || rng.Intn(2) == 0 {
			r.Fields = make(map[string]string, n)
			for len(r.Fields) < n {
				r.Fields[randBytes(rng, 12)] = randBytes(rng, 60)
			}
		}
		if got, want := encode(r), encodeFmt(r); !bytes.Equal(got, want) {
			t.Fatalf("record %d %+v\n got: %q\nwant: %q", i, r, got, want)
		}
	}
	for _, r := range smokeRecords(t) {
		if got, want := encode(r), encodeFmt(r); !bytes.Equal(got, want) {
			t.Fatalf("%+v\n got: %q\nwant: %q", r, got, want)
		}
	}
}

func BenchmarkEncode(b *testing.B) {
	recs := smokeRecords(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		encode(recs[i%len(recs)])
	}
}
