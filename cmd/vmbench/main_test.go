package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The goldens are the full `-exp all` stdout at seed 42, one per
// series. Every table, report line and gate verdict vmbench prints is
// a function of the seed, so any byte of drift is a behaviour change.
func TestAllExperimentsMatchGolden(t *testing.T) {
	for _, series := range []string{"smoke", "paper"} {
		t.Run(series, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", series+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := run([]string{"-exp", "all", "-series", series}, &got); err != nil {
				t.Fatalf("run: %v", err)
			}
			if bytes.Equal(got.Bytes(), want) {
				return
			}
			g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(g) && i < len(w); i++ {
				if g[i] != w[i] {
					t.Fatalf("stdout diverges from testdata/%s.golden at line %d:\n got: %s\nwant: %s", series, i+1, g[i], w[i])
				}
			}
			t.Fatalf("stdout has %d lines, testdata/%s.golden has %d", len(g), series, len(w))
		})
	}
}
