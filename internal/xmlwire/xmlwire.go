// Package xmlwire is the product's one XML codec, beneath every XML
// document it reads or writes: the wire protocol (internal/proto), the
// two documents a message embeds (classads and configuration DAGs), the
// image descriptors the warehouse lays down, and the request files
// vmctl reads. It is an append-style escaper whose output is byte for
// byte what encoding/xml writes, and a non-recursive pull scanner over
// a complete document held in memory. encoding/xml itself is linked
// only into tests, as the oracle each codec is held to.
//
// The scanner reads a strict subset of what encoding/xml's decoder
// reads, and what it accepts it decodes to the same values: elements
// and attributes with ASCII names (no namespaces), either quote,
// character data with the five named entities and numeric character
// references, self-closing tags, comments, and a leading <?xml ... ?>
// declaration. CDATA sections, DOCTYPE and other directives, other
// processing instructions, duplicate attributes, mismatched tags,
// characters outside the XML range, invalid UTF-8 and nesting deeper
// than maxDepth are errors.
package xmlwire

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"unicode/utf8"
)

// AppendEscaped appends s to dst escaped as encoding/xml escapes both
// character data and attribute values: & < > as named entities, both
// quotes, tab, newline and carriage return as numeric references, and
// anything outside the XML character range (or invalid UTF-8) as
// U+FFFD.
func AppendEscaped(dst []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); {
		c := s[i]
		var esc string
		width := 1
		switch {
		case c >= 0x80:
			var r rune
			r, width = utf8.DecodeRuneInString(s[i:])
			if inCharacterRange(r) && !(r == utf8.RuneError && width == 1) {
				i += width
				continue
			}
			esc = "\uFFFD"
		case c == '"':
			esc = "&#34;"
		case c == '\'':
			esc = "&#39;"
		case c == '&':
			esc = "&amp;"
		case c == '<':
			esc = "&lt;"
		case c == '>':
			esc = "&gt;"
		case c == '\t':
			esc = "&#x9;"
		case c == '\n':
			esc = "&#xA;"
		case c == '\r':
			esc = "&#xD;"
		case c < 0x20:
			esc = "\uFFFD"
		default:
			i++
			continue
		}
		dst = append(dst, s[last:i]...)
		dst = append(dst, esc...)
		i += width
		last = i
	}
	return append(dst, s[last:]...)
}

// inCharacterRange is the XML 1.0 Char production.
func inCharacterRange(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

const (
	// maxDepth bounds element nesting. The deepest path in the protocol
	// is eight elements (message > forward-create-request >
	// create-request > dag > node > onerror > handler > param); the rest
	// is room for skipped unknown elements.
	maxDepth = 32
	// maxAttrs bounds the attributes of one tag (the protocol's widest
	// tag has four), so duplicates are found without allocating.
	maxAttrs = 16
)

// Scanner pulls elements, attributes and character data out of one XML
// document. After Open or a Next that returned a name the scanner is
// inside that element's start tag: Attr iterates its attributes, then
// exactly one of Next (child elements), Text (character data of a leaf)
// or Skip consumes its content. Calling one of the three with
// attributes still unread skips them. Byte slices a method returns are
// valid until the next call.
type Scanner struct {
	src []byte
	pos int

	open  [maxDepth][]byte // names of the open elements, outermost first
	depth int

	inTag  bool             // inside a start tag, before its '>'
	empty  bool             // that tag ended in "/>"
	attrs  [maxAttrs][]byte // attribute names seen in the current tag
	nattrs int

	buf  []byte  // unescaped text, when it differs from the source bytes
	lent *[]byte // where buf came from: unescapeBufs, until Release
}

// NewScanner returns a scanner over doc, which it never modifies.
func NewScanner(doc []byte) *Scanner { return &Scanner{src: doc} }

// unescapeBufs lends scanners the buffer they unescape text into, from
// the first text that needs it until Release.
var unescapeBufs = sync.Pool{New: func() any { return new([]byte) }}

// Release returns the scanner's unescape buffer to be lent to another
// scanner. What the scanner returned before must not be used after, and
// the scanner not at all; a scanner never released is only collected.
func (s *Scanner) Release() {
	if s.lent == nil {
		return
	}
	if cap(s.buf) <= 64<<10 { // one outsized document keeps its buffer out of the pool
		*s.lent = s.buf[:0]
		unescapeBufs.Put(s.lent)
	}
	s.buf, s.lent = nil, nil
}

// scratch returns the unescape buffer, emptied, borrowing it at the
// first call.
func (s *Scanner) scratch() []byte {
	if s.lent == nil {
		s.lent = unescapeBufs.Get().(*[]byte)
		s.buf = *s.lent
	}
	return s.buf[:0]
}

func (s *Scanner) errorf(format string, args ...any) error {
	return fmt.Errorf("xml: offset %d: %s", s.pos, fmt.Sprintf(format, args...))
}

var errEOF = errors.New("xml: unexpected end of document")

// Open reads the prolog and the root element's start tag, which must
// be named name.
func (s *Scanner) Open(name string) error {
	root, err := s.root()
	if err != nil {
		return err
	}
	if string(root) != name {
		return fmt.Errorf("xml: expected element <%s>, have <%s>", name, root)
	}
	return nil
}

// root reads the prolog — an optional XML declaration, white space and
// comments — and the root element's start tag, returning its name.
func (s *Scanner) root() ([]byte, error) {
	if bytes.HasPrefix(s.src, []byte("<?")) {
		if err := s.declaration(); err != nil {
			return nil, err
		}
	}
	if err := s.misc(); err != nil {
		return nil, err
	}
	if s.pos >= len(s.src) {
		return nil, errEOF
	}
	if s.pos+1 < len(s.src) && (s.src[s.pos+1] == '/' || s.src[s.pos+1] == '!' || s.src[s.pos+1] == '?') {
		return nil, s.errorf("expected the root element")
	}
	return s.startTag()
}

// End checks that only white space and comments follow the root
// element.
func (s *Scanner) End() error {
	if s.depth != 0 || s.inTag {
		return s.errorf("root element still open")
	}
	if err := s.misc(); err != nil {
		return err
	}
	if s.pos < len(s.src) {
		return s.errorf("content after the root element")
	}
	return nil
}

// misc skips white space and comments, stopping at end of input or at a
// '<' that does not open a comment. Any other character is an error.
func (s *Scanner) misc() error {
	for s.pos < len(s.src) {
		switch c := s.src[s.pos]; {
		case isSpace(c):
			s.pos++
		case c == '<' && bytes.HasPrefix(s.src[s.pos:], []byte("<!--")):
			if err := s.comment(); err != nil {
				return err
			}
		case c == '<':
			return nil
		default:
			return s.errorf("character data outside an element's text")
		}
	}
	return nil
}

// declaration accepts exactly
//
//	<?xml version="1.0" [encoding="utf-8"] [standalone="yes|no"] ?>
//
// (either quote, any case of UTF-8) at offset 0, which is also the only
// processing instruction accepted anywhere.
func (s *Scanner) declaration() error {
	rest := s.src
	if !bytes.HasPrefix(rest, []byte("<?xml")) || len(rest) < 6 || !isSpace(rest[5]) {
		return s.errorf("processing instruction other than the XML declaration")
	}
	end := bytes.Index(rest, []byte("?>"))
	if end < 0 {
		return errEOF
	}
	body := rest[5:end]
	val, body, ok := pseudoAttr(body, "version")
	if !ok || string(val) != "1.0" {
		return s.errorf("XML declaration must start with version=\"1.0\"")
	}
	if val, rest, ok := pseudoAttr(body, "encoding"); ok {
		if !bytes.EqualFold(val, []byte("utf-8")) {
			return s.errorf("unsupported encoding %q", val)
		}
		body = rest
	}
	if val, rest, ok := pseudoAttr(body, "standalone"); ok {
		if string(val) != "yes" && string(val) != "no" {
			return s.errorf("bad standalone value %q", val)
		}
		body = rest
	}
	if len(bytes.TrimLeft(body, " \t\r\n")) != 0 {
		return s.errorf("malformed XML declaration")
	}
	s.pos = end + 2
	return nil
}

// pseudoAttr matches S name=QvalueQ at the front of b.
func pseudoAttr(b []byte, name string) (val, rest []byte, ok bool) {
	t := bytes.TrimLeft(b, " \t\r\n")
	if len(t) == len(b) || !bytes.HasPrefix(t, []byte(name)) {
		return nil, b, false
	}
	t = t[len(name):]
	if len(t) < 2 || t[0] != '=' || t[1] != '"' && t[1] != '\'' {
		return nil, b, false
	}
	end := bytes.IndexByte(t[2:], t[1])
	if end < 0 {
		return nil, b, false
	}
	return t[2 : 2+end], t[2+end+1:], true
}

// comment skips one comment; s.pos is at its "<!--".
func (s *Scanner) comment() error {
	body := s.src[s.pos+4:]
	end := bytes.Index(body, []byte("--"))
	if end < 0 || end+2 >= len(body) {
		return errEOF
	}
	if body[end+2] != '>' {
		return s.errorf(`"--" inside a comment`)
	}
	s.pos += 4 + end + 3
	return nil
}

// startTag reads "<name" at s.pos and opens the element.
func (s *Scanner) startTag() ([]byte, error) {
	s.pos++ // '<'
	name, err := s.name()
	if err != nil {
		return nil, err
	}
	if s.depth == maxDepth {
		return nil, s.errorf("elements nested deeper than %d", maxDepth)
	}
	s.open[s.depth] = name
	s.depth++
	s.inTag, s.empty, s.nattrs = true, false, 0
	return name, nil
}

// name reads an ASCII XML name without a namespace prefix.
func (s *Scanner) name() ([]byte, error) {
	start := s.pos
	for s.pos < len(s.src) && isNameByte(s.src[s.pos], s.pos == start) {
		s.pos++
	}
	if s.pos == start {
		if s.pos >= len(s.src) {
			return nil, errEOF
		}
		return nil, s.errorf("expected a name")
	}
	return s.src[start:s.pos], nil
}

func isNameByte(c byte, first bool) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_' ||
		!first && ('0' <= c && c <= '9' || c == '-' || c == '.')
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// Attr returns the current start tag's next attribute; ok is false once
// the tag is closed.
func (s *Scanner) Attr() (name, value []byte, ok bool, err error) {
	if !s.inTag {
		return nil, nil, false, nil
	}
	spaced := false
	for s.pos < len(s.src) && isSpace(s.src[s.pos]) {
		s.pos++
		spaced = true
	}
	if s.pos >= len(s.src) {
		return nil, nil, false, errEOF
	}
	switch s.src[s.pos] {
	case '>':
		s.pos++
		s.inTag = false
		return nil, nil, false, nil
	case '/':
		if s.pos+1 >= len(s.src) {
			return nil, nil, false, errEOF
		}
		if s.src[s.pos+1] != '>' {
			return nil, nil, false, s.errorf("expected /> in element")
		}
		s.pos += 2
		s.inTag, s.empty = false, true
		return nil, nil, false, nil
	}
	if !spaced {
		return nil, nil, false, s.errorf("expected white space before an attribute")
	}
	if name, err = s.name(); err != nil {
		return nil, nil, false, err
	}
	if string(name) == "xmlns" {
		return nil, nil, false, s.errorf("namespaces are not supported")
	}
	for _, seen := range s.attrs[:s.nattrs] {
		if bytes.Equal(seen, name) {
			return nil, nil, false, s.errorf("duplicate attribute %q", name)
		}
	}
	if s.nattrs == maxAttrs {
		return nil, nil, false, s.errorf("more than %d attributes", maxAttrs)
	}
	s.attrs[s.nattrs] = name
	s.nattrs++
	s.skipSpace()
	if s.pos >= len(s.src) {
		return nil, nil, false, errEOF
	}
	if s.src[s.pos] != '=' {
		return nil, nil, false, s.errorf("attribute %q without a value", name)
	}
	s.pos++
	s.skipSpace()
	if s.pos >= len(s.src) {
		return nil, nil, false, errEOF
	}
	quote := s.src[s.pos]
	if quote != '"' && quote != '\'' {
		return nil, nil, false, s.errorf("unquoted attribute value")
	}
	s.pos++
	end := bytes.IndexByte(s.src[s.pos:], quote)
	if end < 0 {
		return nil, nil, false, errEOF
	}
	if value, err = s.unescape(s.src[s.pos:s.pos+end], true); err != nil {
		return nil, nil, false, err
	}
	s.pos += end + 1
	return name, value, true, nil
}

func (s *Scanner) skipSpace() {
	for s.pos < len(s.src) && isSpace(s.src[s.pos]) {
		s.pos++
	}
}

// enter consumes what is left of the current start tag. A self-closing
// tag has no content to enter: its element is closed, and closed is
// true.
func (s *Scanner) enter() (closed bool, err error) {
	for s.inTag {
		if _, _, _, err := s.Attr(); err != nil {
			return false, err
		}
	}
	if s.empty {
		s.empty = false
		s.depth--
		return true, nil
	}
	return false, nil
}

// Next returns the name of the current element's next child element,
// leaving the scanner inside the child's start tag; ok is false when
// the current element has ended instead (its end tag consumed). Only
// white space and comments may surround child elements.
func (s *Scanner) Next() (name []byte, ok bool, err error) {
	if closed, err := s.enter(); err != nil || closed {
		return nil, false, err
	}
	if err := s.misc(); err != nil {
		return nil, false, err
	}
	if s.pos+1 >= len(s.src) {
		return nil, false, errEOF
	}
	switch s.src[s.pos+1] {
	case '/':
		return nil, false, s.endTag()
	case '!', '?':
		return nil, false, s.errorf("CDATA, directives and processing instructions are not supported")
	}
	name, err = s.startTag()
	return name, err == nil, err
}

// endTag reads "</name>" at s.pos and closes the innermost element.
func (s *Scanner) endTag() error {
	s.pos += 2
	name, err := s.name()
	if err != nil {
		return err
	}
	s.skipSpace()
	if s.pos >= len(s.src) {
		return errEOF
	}
	if s.src[s.pos] != '>' {
		return s.errorf("invalid characters between </%s and >", name)
	}
	s.pos++
	if s.depth == 0 || !bytes.Equal(s.open[s.depth-1], name) {
		return s.errorf("unexpected end tag </%s>", name)
	}
	s.depth--
	return nil
}

// Text returns the character data of the current element, which must
// have no child elements, and consumes its end tag.
func (s *Scanner) Text() ([]byte, error) {
	if closed, err := s.enter(); err != nil || closed {
		return nil, err
	}
	// One run of text up to the end tag, unless comments split it; then
	// the runs gather in s.buf.
	var text []byte
	for runs := 0; ; runs++ {
		end := bytes.IndexByte(s.src[s.pos:], '<')
		if end < 0 || s.pos+end+1 >= len(s.src) {
			return nil, errEOF
		}
		raw := s.src[s.pos : s.pos+end]
		var err error
		if runs == 0 {
			text, err = s.unescape(raw, false)
		} else {
			if runs == 1 {
				s.buf = append(s.scratch(), text...) // a no-op copy when text is s.buf already
			}
			s.buf, err = appendUnescaped(s.buf, raw, false)
			text = s.buf
		}
		if err != nil {
			return nil, s.errorf("%v", err)
		}
		s.pos += end
		switch {
		case s.src[s.pos+1] == '/':
			return text, s.endTag()
		case bytes.HasPrefix(s.src[s.pos:], []byte("<!--")):
			if err := s.comment(); err != nil {
				return nil, err
			}
		default:
			return nil, s.errorf("element <%s> holds text and may not nest markup", s.open[s.depth-1])
		}
	}
}

// Skip consumes the current element whatever it holds, checking it as
// strictly as the content that is read.
func (s *Scanner) Skip() error {
	if closed, err := s.enter(); err != nil || closed {
		return err
	}
	for base := s.depth; s.depth >= base; {
		end := bytes.IndexByte(s.src[s.pos:], '<')
		if end < 0 || s.pos+end+1 >= len(s.src) {
			return errEOF
		}
		if _, err := s.unescape(s.src[s.pos:s.pos+end], false); err != nil {
			return s.errorf("%v", err)
		}
		s.pos += end
		var err error
		switch {
		case s.src[s.pos+1] == '/':
			err = s.endTag()
		case bytes.HasPrefix(s.src[s.pos:], []byte("<!--")):
			err = s.comment()
		case s.src[s.pos+1] == '!' || s.src[s.pos+1] == '?':
			err = s.errorf("CDATA, directives and processing instructions are not supported")
		default:
			if _, err = s.startTag(); err == nil {
				_, err = s.enter()
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Rest is the document from the scanner's position on.
func (s *Scanner) Rest() []byte { return s.src[s.pos:] }

// Children walks the current element's child elements. For a child
// named names[i] it calls f(i), which must consume the child with
// Attr/Attrs and then Children, Text or Skip; children with other names
// are skipped. A name may repeat only if its bit is set in repeat.
func (s *Scanner) Children(names []string, repeat uint32, f func(i int) error) error {
	var seen uint32
	for {
		name, ok, err := s.Next()
		if err != nil || !ok {
			return err
		}
		i := index(names, name)
		if i < 0 {
			if err := s.Skip(); err != nil {
				return err
			}
			continue
		}
		bit := uint32(1) << i
		if seen&bit&^repeat != 0 {
			return s.errorf("duplicate element <%s>", names[i])
		}
		seen |= bit
		if err := f(i); err != nil {
			return err
		}
	}
}

// Attrs walks the current start tag's attributes, calling f(i, value)
// for one named names[i]; others are skipped.
func (s *Scanner) Attrs(names []string, f func(i int, value []byte) error) error {
	for {
		name, value, ok, err := s.Attr()
		if err != nil || !ok {
			return err
		}
		if i := index(names, name); i >= 0 {
			if err := f(i, value); err != nil {
				return err
			}
		}
	}
}

func index(names []string, name []byte) int {
	for i, n := range names {
		if string(name) == n {
			return i
		}
	}
	return -1
}

// Int, Uint, Float and Bool parse an element's text or an attribute's
// value as encoding/xml does for a field of that type: empty is the
// zero value, and surrounding white space is ignored.

// Int parses a decimal int.
func Int(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, nil
	}
	n, err := strconv.ParseInt(string(bytes.TrimSpace(b)), 10, strconv.IntSize)
	return int(n), err
}

// Uint parses a decimal uint64.
func Uint(b []byte) (uint64, error) {
	if len(b) == 0 {
		return 0, nil
	}
	return strconv.ParseUint(string(bytes.TrimSpace(b)), 10, 64)
}

// Float parses a float64.
func Float(b []byte) (float64, error) {
	if len(b) == 0 {
		return 0, nil
	}
	return strconv.ParseFloat(string(bytes.TrimSpace(b)), 64)
}

// Bool parses a boolean.
func Bool(b []byte) (bool, error) {
	if len(b) == 0 {
		return false, nil
	}
	return strconv.ParseBool(string(bytes.TrimSpace(b)))
}

// unescape decodes one run of character data or one attribute value.
// Text that is already plain is returned in place; anything else is
// decoded into s.buf.
func (s *Scanner) unescape(raw []byte, attr bool) ([]byte, error) {
	plain := true
	for _, c := range raw {
		if c < 0x20 && c != '\t' && c != '\n' || c >= 0x7F || c == '&' || c == '<' || c == ']' {
			plain = false
			break
		}
	}
	if plain {
		return raw, nil
	}
	var err error
	s.buf, err = appendUnescaped(s.scratch(), raw, attr)
	return s.buf, err
}

// appendUnescaped appends raw to dst the way encoding/xml reads it:
// entities and character references replaced, \r\n and \r turned into
// \n, and every character checked to be valid UTF-8 in the XML range.
// "]]>" is an error in character data, '<' in an attribute value.
func appendUnescaped(dst, raw []byte, attr bool) ([]byte, error) {
	for i := 0; i < len(raw); {
		c := raw[i]
		switch {
		case c >= 0x80:
			r, width := utf8.DecodeRune(raw[i:])
			if r == utf8.RuneError && width == 1 {
				return dst, errors.New("invalid UTF-8")
			}
			if !inCharacterRange(r) {
				return dst, fmt.Errorf("illegal character code %U", r)
			}
			dst = append(dst, raw[i:i+width]...)
			i += width
			continue
		case c == '&':
			r, width, err := entity(raw[i:])
			if err != nil {
				return dst, err
			}
			dst = utf8.AppendRune(dst, r)
			i += width
			continue
		case c == '<':
			return dst, errors.New("unescaped < inside quoted string")
		case c == '\r':
			dst = append(dst, '\n')
			if i+1 < len(raw) && raw[i+1] == '\n' {
				i++
			}
		case c < 0x20 && c != '\t' && c != '\n':
			return dst, fmt.Errorf("illegal character code %U", rune(c))
		case c == ']' && !attr && bytes.HasPrefix(raw[i:], []byte("]]>")):
			return dst, errors.New("unescaped ]]> not in CDATA section")
		default:
			dst = append(dst, c)
		}
		i++
	}
	return dst, nil
}

// entity decodes the reference at the front of b (which starts with
// '&'): one of the five predefined entities or a numeric reference to a
// character in the XML range.
func entity(b []byte) (r rune, width int, err error) {
	semi := bytes.IndexByte(b, ';')
	if semi < 0 || semi > 10 {
		return 0, 0, errors.New("invalid character entity")
	}
	ref := b[1:semi]
	switch string(ref) {
	case "lt":
		return '<', semi + 1, nil
	case "gt":
		return '>', semi + 1, nil
	case "amp":
		return '&', semi + 1, nil
	case "apos":
		return '\'', semi + 1, nil
	case "quot":
		return '"', semi + 1, nil
	}
	if len(ref) < 2 || ref[0] != '#' {
		return 0, 0, fmt.Errorf("invalid character entity &%s;", ref)
	}
	digits, base := ref[1:], rune(10)
	if digits[0] == 'x' {
		digits, base = digits[1:], 16
	}
	if len(digits) == 0 {
		return 0, 0, fmt.Errorf("invalid character entity &%s;", ref)
	}
	for _, c := range digits {
		var d rune
		switch {
		case '0' <= c && c <= '9':
			d = rune(c - '0')
		case base == 16 && 'a' <= c && c <= 'f':
			d = rune(c-'a') + 10
		case base == 16 && 'A' <= c && c <= 'F':
			d = rune(c-'A') + 10
		default:
			return 0, 0, fmt.Errorf("invalid character entity &%s;", ref)
		}
		if r = r*base + d; r > utf8.MaxRune {
			return 0, 0, fmt.Errorf("invalid character entity &%s;", ref)
		}
	}
	if !inCharacterRange(r) {
		return 0, 0, fmt.Errorf("illegal character code %U", r)
	}
	return r, semi + 1, nil
}
