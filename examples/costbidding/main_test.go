package main

import (
	"os"
	"strings"
	"testing"
)

// stdout runs main with its standard output sent to a file and returns
// what it printed.
func stdout(t *testing.T) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	main()
	os.Stdout = saved
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// The bid table lists each round's plants in name order, so two runs of
// the walk-through print the same bytes.
func TestBidTableIsDeterministic(t *testing.T) {
	first, second := stdout(t), stdout(t)
	if first != second {
		t.Errorf("two runs printed different tables:\n%s\n---\n%s", first, second)
	}
	if !strings.Contains(first, "request  bids") {
		t.Errorf("no bid table in the output:\n%s", first)
	}
}
