package journal

import (
	"strconv"
	"strings"
)

// plain marks the bytes Go quoting copies as they are: printable ASCII
// except the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := ' '; c <= '~'; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// quotedLen is len(strconv.Quote(s)) when s is printable ASCII, and a
// lower bound otherwise.
func quotedLen(s string) int {
	return len(s) + 2 + strings.Count(s, `"`) + strings.Count(s, `\`)
}

// appendQuote is strconv.AppendQuote, byte for byte. Runs of printable
// ASCII are copied whole and a quote or backslash gets its backslash;
// any other byte hands the whole string to strconv.
func appendQuote(b []byte, s string) []byte {
	mark := len(b)
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		j := i
		for j < len(s) && plain[s[j]] {
			j++
		}
		b = append(b, s[i:j]...)
		if i = j; i == len(s) {
			break
		}
		if c := s[i]; c != '"' && c != '\\' {
			return strconv.AppendQuote(b[:mark], s)
		}
		b = append(b, '\\', s[i])
	}
	return append(b, '"')
}
