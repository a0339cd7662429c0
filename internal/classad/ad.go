package classad

import (
	"encoding/xml"
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
}

const scanMax = 64

// attr is one definition: a literal keeps its value unboxed in val and
// leaves expr nil.
type attr struct {
	name string // original spelling
	expr Expr
	val  Value
}

func (at *attr) source() string {
	if at.expr == nil {
		return at.val.String()
	}
	return at.expr.String()
}

// New returns an empty ad.
func New() *Ad { return &Ad{} }

// Grow reserves room for n more attributes, so that an ad of known
// size is allocated once.
func (a *Ad) Grow(n int) *Ad {
	a.attrs = slices.Grow(a.attrs, n)
	return a
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
		return a.set(name, nil, l.v)
	}
	return a.set(name, e, Value{})
}

func (a *Ad) set(name string, e Expr, v Value) *Ad {
	if i := a.find(name); i >= 0 {
		a.attrs[i].expr, a.attrs[i].val = e, v
		return a
	}
	a.attrs = append(a.attrs, attr{name, e, v})
	if a.index != nil {
		a.index[strings.ToLower(name)] = len(a.attrs) - 1
	} else if len(a.attrs) > scanMax {
		a.reindex()
	}
	return a
}

// Convenience setters for literal values.

// SetInt binds name to an integer literal.
func (a *Ad) SetInt(name string, v int64) *Ad { return a.set(name, nil, Int(v)) }

// SetReal binds name to a real literal.
func (a *Ad) SetReal(name string, v float64) *Ad { return a.set(name, nil, Real(v)) }

// SetString binds name to a string literal.
func (a *Ad) SetString(name, v string) *Ad { return a.set(name, nil, Str(v)) }

// SetBool binds name to a boolean literal.
func (a *Ad) SetBool(name string, v bool) *Ad { return a.set(name, nil, Bool(v)) }

// SetStrings binds name to a list of string literals.
func (a *Ad) SetStrings(name string, vs ...string) *Ad {
	elems := make([]Value, len(vs))
	for i, s := range vs {
		elems[i] = Str(s)
	}
	return a.set(name, nil, List(elems...))
}

// SetExprString parses src as an expression and binds it to name.
func (a *Ad) SetExprString(name, src string) error {
	e, err := ParseExpr(src)
	if err != nil {
		return err
	}
	a.Set(name, e)
	return nil
}

// Delete removes an attribute; it reports whether it was present.
func (a *Ad) Delete(name string) bool {
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
	if e := a.attrs[i].expr; e != nil {
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
	at := &a.attrs[i]
	if at.expr == nil {
		return at.val
	}
	return at.expr.eval(&env{self: a, target: other, stack: []attrExpr{{"my", name}}})
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
// parsed, so sharing them is safe; the attribute table is copied.
func (a *Ad) Clone() *Ad {
	return &Ad{attrs: slices.Clone(a.attrs), index: maps.Clone(a.index)}
}

// Merge copies every attribute of b into a, overwriting duplicates.
func (a *Ad) Merge(b *Ad) *Ad {
	for i := range b.attrs {
		at := &b.attrs[i]
		a.set(at.name, at.expr, at.val)
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
	toks, err := lex(src)
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

// xmlAd is the wire form used by the service protocol: each attribute
// carried as classad source text so arbitrary expressions round-trip.
type xmlAd struct {
	XMLName xml.Name  `xml:"classad"`
	Attrs   []xmlAttr `xml:"attr"`
}

type xmlAttr struct {
	Name string `xml:"name,attr"`
	Expr string `xml:",chardata"`
}

// MarshalXML encodes the ad as <classad><attr name=...>expr</attr>...</classad>.
func (a *Ad) MarshalXML(e *xml.Encoder, start xml.StartElement) error {
	x := xmlAd{}
	for i := range a.attrs {
		x.Attrs = append(x.Attrs, xmlAttr{Name: a.attrs[i].name, Expr: a.attrs[i].source()})
	}
	start.Name = xml.Name{Local: "classad"}
	return e.EncodeElement(x, start)
}

// UnmarshalXML decodes the wire form produced by MarshalXML.
func (a *Ad) UnmarshalXML(d *xml.Decoder, start xml.StartElement) error {
	var x xmlAd
	if err := d.DecodeElement(&x, &start); err != nil {
		return err
	}
	for _, at := range x.Attrs {
		ex, err := ParseExpr(at.Expr)
		if err != nil {
			return fmt.Errorf("classad: attribute %q: %w", at.Name, err)
		}
		a.Set(at.Name, ex)
	}
	return nil
}

// AppendXML appends the ad's wire form to dst: byte for byte what
// MarshalXML writes, without encoding/xml. It is what the protocol
// codec (internal/proto) calls.
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
// Literals that need no escaping — most of what an ad on the wire
// holds — skip the String call and the escaper.
func appendSourceXML(dst []byte, at *attr) []byte {
	if at.expr == nil {
		switch v := &at.val; v.kind {
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
		}
	}
	return xmlwire.AppendEscaped(dst, at.source())
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
// <classad> start tag, and adds its attributes to a: what UnmarshalXML
// does, over the subset of XML the scanner accepts.
func (a *Ad) DecodeXML(s *xmlwire.Scanner) error {
	if n := s.CountAhead("<attr", "</classad>"); a.attrs == nil && n > 0 {
		a.attrs = make([]attr, 0, n)
		// The count is a guess ("<attr0" counts too): an ad that ends
		// up empty must look as if nothing had been reserved.
		defer func() {
			if len(a.attrs) == 0 {
				a.attrs = nil
			}
		}()
	}
	return s.Children(adChildren, 1, func(int) error {
		var name string
		if err := s.Attrs(attrAttrs, func(_ int, v []byte) error {
			name = string(v)
			return nil
		}); err != nil {
			return err
		}
		src, err := s.Text()
		if err != nil {
			return err
		}
		if v, ok := literal(src); ok {
			a.set(name, nil, v)
			return nil
		}
		ex, err := parseExpr(string(src))
		if err != nil {
			return fmt.Errorf("classad: attribute %q: %w", name, err)
		}
		a.Set(name, ex)
		return nil
	})
}
