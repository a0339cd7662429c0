package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/{smoke,paper}.golden from this run (make goldens)")

// blocks cuts vmbench's stdout at its "===== title =====" headers: one
// block per experiment, keyed by the header line (whatever precedes
// the first header is keyed "").
func blocks(out string) (titles []string, body map[string]string) {
	body = make(map[string]string)
	title := ""
	for _, line := range strings.SplitAfter(out, "\n") {
		if strings.HasPrefix(line, "=====") {
			title = strings.TrimSpace(line)
		}
		if _, seen := body[title]; !seen {
			titles = append(titles, title)
		}
		body[title] += line
	}
	return titles, body
}

// The goldens are the full `-exp all` stdout at seed 42, one per
// series. Every table, report line and gate verdict vmbench prints is
// a function of the seed, so any byte of drift is a behaviour change.
// Every experiment block that diverges is reported with its first
// differing line, not just the first block.
func TestAllExperimentsMatchGolden(t *testing.T) {
	for _, series := range []string{"smoke", "paper"} {
		t.Run(series, func(t *testing.T) {
			golden := filepath.Join("testdata", series+".golden")
			want, err := os.ReadFile(golden)
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
			if *update {
				if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			titles, g := blocks(got.String())
			wantTitles, w := blocks(string(want))
			for _, title := range titles {
				if g[title] == w[title] {
					continue
				}
				gl, wl := strings.Split(g[title], "\n"), strings.Split(w[title], "\n")
				i := 0
				for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
					i++
				}
				gl, wl = append(gl, "<end of block>"), append(wl, "<end of block>")
				t.Errorf("block %q diverges from %s at its line %d:\n got: %s\nwant: %s", title, golden, i+1, gl[i], wl[i])
			}
			for _, title := range wantTitles {
				if _, ok := g[title]; !ok {
					t.Errorf("block %q of %s is missing from stdout", title, golden)
				}
			}
		})
	}
}
