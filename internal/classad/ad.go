package classad

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
	"strings"

	"vmplants/internal/xmlwire"
)

// Ad is a classified advertisement: an ordered collection of attribute
// definitions. Attribute names are case-insensitive (stored with their
// first-seen spelling, matched case-insensitively), as in Condor. The
// zero Ad is an empty ad ready to use.
type Ad struct {
	attrs []attr // insertion order
	// index maps strings.ToLower(name) to a position in attrs once an ad
	// has more than scanMax attributes (a 4 MiB frame holds some 10^5,
	// and a scan per lookup would make decoding it quadratic). Only
	// operations that change the ad touch it, so readers stay safe.
	index map[string]int
	// frozen marks a snapshot: every reader shares it, nothing edits it
	// (each setter panics), and With makes the edited copy instead.
	frozen bool
}

const scanMax = 64

// attr is one definition, 56 bytes: a literal keeps its value unboxed
// in val, and an attribute bound to an expression holds a value of kind
// kindExpr pointing to it.
type attr struct {
	name string // original spelling
	val  Value
}

// expr returns the expression at is bound to, or nil for a literal.
func (at *attr) expr() Expr {
	if at.val.kind != kindExpr {
		return nil
	}
	return *(*Expr)(at.val.p)
}

func (at *attr) source() string {
	if e := at.expr(); e != nil {
		return e.String()
	}
	return at.val.String()
}

// New returns an empty ad.
func New() *Ad { return &Ad{} }

// Grow reserves room for n more attributes, so that an ad of known
// size is allocated once.
func (a *Ad) Grow(n int) *Ad {
	a.writable()
	a.attrs = slices.Grow(a.attrs, n)
	return a
}

// Freeze makes a a snapshot and returns it: from now on a setter on it
// panics, so it may be shared by any number of readers. A nil ad stays
// nil, and freezing a frozen ad writes nothing.
func (a *Ad) Freeze() *Ad {
	if a != nil && !a.frozen {
		a.frozen = true
	}
	return a
}

// writable panics on a frozen ad: the edit would reach every reader
// sharing the snapshot.
func (a *Ad) writable() {
	if a.frozen {
		panic("classad: edit of a frozen ad")
	}
}

// With returns a frozen copy of a with name bound to the literal v, its
// attribute table sized exactly: how a snapshot is edited. a itself is
// unchanged, and a frozen a already binding name to exactly v is
// returned as it is.
func (a *Ad) With(name string, v Value) *Ad {
	i := a.find(name)
	if i >= 0 && a.frozen && a.attrs[i].val.same(v) {
		return a
	}
	n := a.Len()
	if i < 0 {
		n++
	}
	b := &Ad{attrs: make([]attr, n), frozen: true}
	copy(b.attrs, a.attrs)
	if i < 0 {
		b.attrs[n-1] = attr{name: name, val: v}
	} else {
		b.attrs[i].val = v
	}
	b.reindex()
	return b
}

// Len reports the number of attributes; a nil ad has none.
func (a *Ad) Len() int {
	if a == nil {
		return 0
	}
	return len(a.attrs)
}

// Names returns attribute names in insertion order.
func (a *Ad) Names() []string {
	var names []string
	for i := range a.attrs {
		names = append(names, a.attrs[i].name)
	}
	return names
}

// find returns the position of the attribute called name, or -1; a nil
// ad holds none.
func (a *Ad) find(name string) int {
	if a == nil {
		return -1
	}
	if a.index != nil {
		if i, ok := a.index[strings.ToLower(name)]; ok {
			return i
		}
		return -1
	}
	for i := range a.attrs {
		if foldCompare(a.attrs[i].name, name) == 0 {
			return i
		}
	}
	return -1
}

// reindex rebuilds the index of an ad long enough to need one.
func (a *Ad) reindex() {
	a.index = nil
	if len(a.attrs) > scanMax {
		a.index = make(map[string]int, len(a.attrs))
		for i := range a.attrs {
			a.index[strings.ToLower(a.attrs[i].name)] = i
		}
	}
}

// Set binds name to the given expression, replacing any previous
// binding but keeping the original position and spelling.
func (a *Ad) Set(name string, e Expr) *Ad {
	if l, ok := e.(litExpr); ok {
		return a.set(name, l.v)
	}
	return a.set(name, exprValue(e))
}

func (a *Ad) set(name string, v Value) *Ad {
	a.writable()
	if i := a.find(name); i >= 0 {
		a.attrs[i].val = v
		return a
	}
	a.attrs = append(a.attrs, attr{name, v})
	if a.index != nil {
		a.index[strings.ToLower(name)] = len(a.attrs) - 1
	} else if len(a.attrs) > scanMax {
		a.reindex()
	}
	return a
}

// Convenience setters for literal values.

// SetInt binds name to an integer literal.
func (a *Ad) SetInt(name string, v int64) *Ad { return a.set(name, Int(v)) }

// SetReal binds name to a real literal.
func (a *Ad) SetReal(name string, v float64) *Ad { return a.set(name, Real(v)) }

// SetString binds name to a string literal.
func (a *Ad) SetString(name, v string) *Ad { return a.set(name, Str(v)) }

// SetBool binds name to a boolean literal.
func (a *Ad) SetBool(name string, v bool) *Ad { return a.set(name, Bool(v)) }

// SetValue binds name to a literal value; a list's elements are shared.
func (a *Ad) SetValue(name string, v Value) *Ad { return a.set(name, v) }

// SetExprString parses src as an expression and binds it to name.
func (a *Ad) SetExprString(name, src string) error {
	a.writable()
	e, err := ParseExpr(src)
	if err != nil {
		return err
	}
	a.Set(name, e)
	return nil
}

// Delete removes an attribute; it reports whether it was present.
func (a *Ad) Delete(name string) bool {
	a.writable()
	i := a.find(name)
	if i < 0 {
		return false
	}
	a.attrs = slices.Delete(a.attrs, i, i+1)
	a.reindex()
	return true
}

// Lookup returns the unevaluated expression bound to name.
func (a *Ad) Lookup(name string) (Expr, bool) {
	i := a.find(name)
	if i < 0 {
		return nil, false
	}
	if e := a.attrs[i].expr(); e != nil {
		return e, true
	}
	return litExpr{a.attrs[i].val}, true
}

// Eval evaluates the named attribute in the ad's own scope.
func (a *Ad) Eval(name string) Value {
	return a.EvalAgainst(name, nil)
}

// EvalAgainst evaluates the named attribute with other available as the
// TARGET scope (and as fallback for unscoped references).
func (a *Ad) EvalAgainst(name string, other *Ad) Value {
	i := a.find(name)
	if i < 0 {
		return Undefined()
	}
	e := a.attrs[i].expr()
	if e == nil {
		return a.attrs[i].val
	}
	return e.eval(&env{self: a, target: other, stack: []attrExpr{{"my", name}}})
}

// EvalExpr evaluates an arbitrary expression in the ad's scope.
func (a *Ad) EvalExpr(e Expr, other *Ad) Value {
	return e.eval(&env{self: a, target: other})
}

// Typed accessors with defaults, for the common protocol plumbing.

// GetString returns the attribute as a string, or def when absent or of
// another type.
func (a *Ad) GetString(name, def string) string {
	if s, ok := a.Eval(name).StringVal(); ok {
		return s
	}
	return def
}

// GetInt returns the attribute as an int64, or def.
func (a *Ad) GetInt(name string, def int64) int64 {
	v := a.Eval(name)
	if i, ok := v.IntVal(); ok {
		return i
	}
	if f, ok := v.RealVal(); ok {
		return int64(f)
	}
	return def
}

// GetReal returns the attribute as a float64, or def.
func (a *Ad) GetReal(name string, def float64) float64 {
	if f, ok := a.Eval(name).Number(); ok {
		return f
	}
	return def
}

// GetBool returns the attribute as a bool, or def.
func (a *Ad) GetBool(name string, def bool) bool {
	if b, ok := a.Eval(name).BoolVal(); ok {
		return b
	}
	return def
}

// GetStrings returns the attribute as a []string; nil when absent or
// when any element is not a string.
func (a *Ad) GetStrings(name string) []string {
	l, ok := a.Eval(name).ListVal()
	if !ok {
		return nil
	}
	out := make([]string, len(l))
	for i, v := range l {
		s, ok := v.StringVal()
		if !ok {
			return nil
		}
		out[i] = s
	}
	return out
}

// Clone returns a deep-enough copy: expressions are immutable once
// parsed, so sharing them is safe; the attribute table is copied. The
// copy is writable, even of a frozen ad.
func (a *Ad) Clone() *Ad {
	return &Ad{attrs: slices.Clone(a.attrs), index: maps.Clone(a.index)}
}

// Merge copies every attribute of b into a, overwriting duplicates.
func (a *Ad) Merge(b *Ad) *Ad {
	a.writable()
	for i := range b.attrs {
		a.set(b.attrs[i].name, b.attrs[i].val)
	}
	return a
}

// Match reports whether both ads' Requirements expressions evaluate to
// true against each other — the symmetric matchmaking test. An ad with
// no Requirements attribute imposes no constraint.
func Match(a, b *Ad) bool {
	return halfMatch(a, b) && halfMatch(b, a)
}

func halfMatch(a, b *Ad) bool {
	if a.find("Requirements") < 0 {
		return true
	}
	return a.EvalAgainst("Requirements", b).IsTrue()
}

// Rank evaluates a's Rank expression against b, returning 0 when absent
// or non-numeric. Higher is better, as in matchmaking.
func Rank(a, b *Ad) float64 {
	f, ok := a.EvalAgainst("Rank", b).Number()
	if !ok {
		return 0
	}
	return f
}

// String renders the ad in classad source syntax:
//
//	[ Name = "vm1"; Memory = 64; Requirements = other.Disk > 100 ]
func (a *Ad) String() string {
	var b strings.Builder
	b.WriteString("[ ")
	for i := range a.attrs {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(a.attrs[i].name)
		b.WriteString(" = ")
		b.WriteString(a.attrs[i].source())
	}
	b.WriteString(" ]")
	return b.String()
}

// Parse parses an ad in classad source syntax.
func Parse(src string) (*Ad, error) {
	toks, err := lex(src, nil)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	if _, err := p.expect(tokLBracket, "'['"); err != nil {
		return nil, err
	}
	ad := New()
	for {
		if p.peek().kind == tokRBracket {
			p.advance()
			break
		}
		nameTok, err := p.expect(tokIdent, "attribute name")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokAssign, "'='"); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ad.Set(nameTok.text, e)
		switch p.peek().kind {
		case tokSemi:
			p.advance()
		case tokRBracket:
		default:
			return nil, fmt.Errorf("classad: offset %d: expected ';' or ']'", p.peek().pos)
		}
	}
	if p.peek().kind != tokEOF {
		return nil, fmt.Errorf("classad: trailing input at offset %d", p.peek().pos)
	}
	return ad, nil
}

// MustParse is Parse, panicking on error.
func MustParse(src string) *Ad {
	ad, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return ad
}

// AppendXML appends the ad's wire form to dst,
// <classad><attr name=...>expr</attr>...</classad>: each attribute
// carried as classad source text, so arbitrary expressions round-trip.
// The bytes are what encoding/xml writes for the reflection oracle in
// xml_test.go. It is what the protocol codec (internal/proto) calls.
func (a *Ad) AppendXML(dst []byte) []byte {
	dst = append(dst, "<classad>"...)
	for i := range a.attrs {
		dst = append(dst, `<attr name="`...)
		dst = xmlwire.AppendEscaped(dst, a.attrs[i].name)
		dst = append(dst, `">`...)
		dst = appendSourceXML(dst, &a.attrs[i])
		dst = append(dst, "</attr>"...)
	}
	return append(dst, "</classad>"...)
}

// appendSourceXML appends the definition's source text, XML-escaped.
func appendSourceXML(dst []byte, at *attr) []byte {
	if e := at.expr(); e != nil {
		return xmlwire.AppendEscaped(dst, e.String())
	}
	return appendValueXML(dst, &at.val)
}

// appendValueXML appends a literal's source text, XML-escaped. Literals
// that need no escaping — most of what an ad on the wire holds, and
// lists of them — skip the String call and the escaper.
func appendValueXML(dst []byte, v *Value) []byte {
	switch v.kind {
	case KindBool:
		return strconv.AppendBool(dst, v.n != 0)
	case KindInt:
		return strconv.AppendInt(dst, int64(v.n), 10)
	case KindReal:
		return strconv.AppendFloat(dst, math.Float64frombits(v.n), 'g', -1, 64)
	case KindString:
		if quotesToItself(v.s) {
			dst = append(dst, "&#34;"...)
			dst = append(dst, v.s...)
			return append(dst, "&#34;"...)
		}
	case KindList:
		dst = append(dst, '{')
		l := v.list()
		for i := range l {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = appendValueXML(dst, &l[i])
		}
		return append(dst, '}')
	}
	return xmlwire.AppendEscaped(dst, v.String())
}

// quotesToItself reports whether s is printable ASCII that neither
// strconv.Quote nor the XML escaper would change.
func quotesToItself(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c > 0x7E, c == '"', c == '\\', c == '&', c == '<', c == '>', c == '\'':
			return false
		}
	}
	return true
}

var (
	adChildren = []string{"attr"}
	attrAttrs  = []string{"name"}
)

// DecodeXML reads the wire form from a scanner that has just read the
// <classad> start tag, and adds its attributes to a. It reads the
// subset of XML the scanner accepts, and decodes what it reads as the
// encoding/xml oracle in xml_test.go does.
//
// Every name and every plain string literal, those in lists of plain
// strings included, is cut from one string made for the ad: the walk
// copies them into one scratch buffer, and the attributes are set, in
// document order, once that string exists. Such lists share one
// allocation for their elements. Other literals are read in place;
// anything else is an expression parseExpr reads.
func (a *Ad) DecodeXML(s *xmlwire.Scanner) error {
	// The lists start in arrays here, so that an ad of the size the
	// protocol carries is read without allocating for them.
	var (
		bufArr  [512]byte
		defArr  [24]pendingAttr
		elemArr [16][2]int
	)
	buf, defs, elems := bufArr[:0], defArr[:0], elemArr[:0]
	err := s.Children(adChildren, 1, func(int) error {
		var def pendingAttr
		err := s.Attrs(attrAttrs, func(_ int, v []byte) error {
			def.name = [2]int{len(buf), len(buf) + len(v)}
			buf = append(buf, v...)
			return nil
		})
		if err != nil {
			return err
		}
		src, err := s.Text()
		if err != nil {
			return err
		}
		n := len(elems)
		if q, ok := quoted(src); ok {
			def.str, def.cut = [2]int{len(buf), len(buf) + len(q)}, cutString
			buf = append(buf, q...)
		} else if v, ok := literal(src); ok {
			def.val = v
		} else if buf, elems, ok = stringList(src, buf, elems); ok {
			def.str, def.cut = [2]int{n, len(elems)}, cutList
		} else if def.expr, err = parseExpr(string(src)); err != nil {
			return fmt.Errorf("classad: attribute %q: %w", string(buf[def.name[0]:def.name[1]]), err)
		} else if l, ok := def.expr.(litExpr); ok {
			def.expr, def.val = nil, l.v
		}
		defs = append(defs, def)
		return nil
	})
	if err != nil || len(defs) == 0 {
		return err
	}
	str := string(buf)
	var vals []Value
	if len(elems) > 0 {
		vals = make([]Value, len(elems))
		for i, e := range elems {
			vals[i] = Str(str[e[0]:e[1]])
		}
	}
	if a.attrs == nil {
		a.attrs = make([]attr, 0, len(defs))
	}
	for _, def := range defs {
		switch def.cut {
		case cutString:
			def.val = Str(str[def.str[0]:def.str[1]])
		case cutList:
			def.val = List(vals[def.str[0]:def.str[1]:def.str[1]]...)
		}
		if def.expr != nil {
			def.val = exprValue(def.expr)
		}
		a.set(str[def.name[0]:def.name[1]], def.val)
	}
	return nil
}

// pendingAttr is one <attr> as DecodeXML's walk records it. Its name is
// a range of the walk's buffer, and so is the text of a plain string
// literal (cutString); a list of plain strings (cutList) is a range of
// the walk's element ranges.
type pendingAttr struct {
	name, str [2]int
	cut       byte
	expr      Expr
	val       Value
}

// What of a pendingAttr's value is cut from the ad's string.
const (
	cutString = 1 + iota
	cutList
)

// stringList reads a list of one or more plain quoted strings — {"a",
// "b"}, with white space between the tokens — appending each string's
// text to buf and its range of buf to elems. Anything else (an empty
// list, an escape, another kind of element, a comment) it declines,
// returning buf and elems as they were, for the parser to read: what it
// accepts it reads as the parser does.
func stringList(src, buf []byte, elems [][2]int) ([]byte, [][2]int, bool) {
	n := len(src)
	if n < 2 || src[0] != '{' || src[n-1] != '}' {
		return buf, elems, false
	}
	b, e := buf, elems
	for i := 1; ; i++ { // src[i-1] is '{' or ','
		i = skipBlanks(src, i)
		if src[i] != '"' {
			return buf, elems, false
		}
		j := i + 1
		for j < n-1 && src[j] != '"' && src[j] != '\\' {
			j++
		}
		if j == n-1 || src[j] != '"' {
			return buf, elems, false
		}
		e = append(e, [2]int{len(b), len(b) + j - i - 1})
		b = append(b, src[i+1:j]...)
		switch i = skipBlanks(src, j+1); {
		case i == n-1:
			return b, e, true
		case src[i] != ',':
			return buf, elems, false
		}
	}
}

// skipBlanks returns the position of the first byte from i on that is
// not white space to the lexer; src ends in one that is not.
func skipBlanks(src []byte, i int) int {
	for src[i] == ' ' || src[i] == '\t' || src[i] == '\n' || src[i] == '\r' {
		i++
	}
	return i
}
