package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"reflect"
	"strconv"
	"testing"
)

// smokeRecords loads the seed corpus the fuzz targets share: the shop
// journal of one `vmbench -exp restart -series smoke` run, one JSON
// record per line (internal/shop/ledger's FuzzApply reads the same file).
func smokeRecords(tb testing.TB) []Record {
	tb.Helper()
	f, err := os.Open("testdata/restart-smoke.jsonl")
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	var recs []Record
	for dec := json.NewDecoder(f); dec.More(); {
		var r Record
		if err := dec.Decode(&r); err != nil {
			tb.Fatal(err)
		}
		recs = append(recs, r)
	}
	if len(recs) == 0 {
		tb.Fatal("seed corpus is empty")
	}
	return recs
}

// seal appends the checksum trailer encode would, making b a record whose
// body the fuzzer chose: without it nearly every mutated input dies at
// the checksum and the field parser behind it is never reached.
func seal(b []byte) []byte {
	h := fnv.New64a()
	h.Write(b)
	return []byte(fmt.Sprintf("%s #%016x\n", b, h.Sum64()))
}

// FuzzDecode holds the record codec to three properties: decode never
// panics, whatever bytes a crash or bit rot left on the volume; any
// record decode accepts survives encode → decode unchanged, so replay
// reads back exactly what was appended; and encode quotes exactly as
// strconv does. Each input is tried raw and as the body of a correctly
// checksummed record.
func FuzzDecode(f *testing.F) {
	for _, r := range smokeRecords(f) {
		line := encode(r)
		f.Add(line)
		f.Add(line[:bytes.LastIndex(line, []byte(" #"))])
	}
	f.Add([]byte(`seq=x kind= key="\" a="unterminated`))
	f.Fuzz(func(t *testing.T, b []byte) {
		sameQuoting(t, string(b))
		for _, line := range [][]byte{b, seal(b)} {
			r, err := decode(line)
			if err != nil {
				continue
			}
			again, err := decode(encode(r))
			if err != nil {
				t.Fatalf("re-encoded record does not decode: %v\nrecord %+v", err, r)
			}
			if !reflect.DeepEqual(again, r) {
				t.Fatalf("round trip changed the record:\n was %+v\n now %+v", r, again)
			}
		}
	})
}

// sameQuoting holds appendQuote to strconv.AppendQuote on s.
func sameQuoting(t *testing.T, s string) {
	t.Helper()
	if got, want := appendQuote([]byte("x"), s), strconv.AppendQuote([]byte("x"), s); !bytes.Equal(got, want) {
		t.Fatalf("appendQuote(%q) = %q, strconv says %q", s, got, want)
	}
}
