package classad

import (
	"encoding/xml"
	"fmt"
	"strconv"
	"strings"

	"vmplants/internal/xmlwire"
)

// Ad is a classified advertisement: an ordered collection of attribute
// definitions. Attribute names are case-insensitive (stored with their
// first-seen spelling, matched case-insensitively), as in Condor.
type Ad struct {
	names []string        // insertion order, original spelling
	attrs map[string]Expr // lower-case name -> expression
}

// New returns an empty ad.
func New() *Ad {
	return &Ad{attrs: make(map[string]Expr)}
}

// Len reports the number of attributes.
func (a *Ad) Len() int { return len(a.names) }

// Names returns attribute names in insertion order.
func (a *Ad) Names() []string {
	return append([]string(nil), a.names...)
}

// Set binds name to the given expression, replacing any previous
// binding but keeping the original position and spelling.
func (a *Ad) Set(name string, e Expr) *Ad {
	key := strings.ToLower(name)
	if _, ok := a.attrs[key]; !ok {
		a.names = append(a.names, name)
	}
	a.attrs[key] = e
	return a
}

// Convenience setters for literal values.

// SetInt binds name to an integer literal.
func (a *Ad) SetInt(name string, v int64) *Ad { return a.Set(name, Lit(Int(v))) }

// SetReal binds name to a real literal.
func (a *Ad) SetReal(name string, v float64) *Ad { return a.Set(name, Lit(Real(v))) }

// SetString binds name to a string literal.
func (a *Ad) SetString(name, v string) *Ad { return a.Set(name, Lit(Str(v))) }

// SetBool binds name to a boolean literal.
func (a *Ad) SetBool(name string, v bool) *Ad { return a.Set(name, Lit(Bool(v))) }

// SetStrings binds name to a list of string literals.
func (a *Ad) SetStrings(name string, vs ...string) *Ad {
	elems := make([]Value, len(vs))
	for i, s := range vs {
		elems[i] = Str(s)
	}
	return a.Set(name, Lit(List(elems...)))
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
	key := strings.ToLower(name)
	if _, ok := a.attrs[key]; !ok {
		return false
	}
	delete(a.attrs, key)
	for i, n := range a.names {
		if strings.ToLower(n) == key {
			a.names = append(a.names[:i], a.names[i+1:]...)
			break
		}
	}
	return true
}

// Lookup returns the unevaluated expression bound to name.
func (a *Ad) Lookup(name string) (Expr, bool) {
	if a == nil {
		return nil, false
	}
	e, ok := a.attrs[strings.ToLower(name)]
	return e, ok
}

// Eval evaluates the named attribute in the ad's own scope.
func (a *Ad) Eval(name string) Value {
	return a.EvalAgainst(name, nil)
}

// EvalAgainst evaluates the named attribute with other available as the
// TARGET scope (and as fallback for unscoped references).
func (a *Ad) EvalAgainst(name string, other *Ad) Value {
	e, ok := a.Lookup(name)
	if !ok {
		return Undefined()
	}
	en := &env{self: a, target: other}
	if !en.push("my", name) {
		return Errorf("cyclic reference to %q", name)
	}
	defer en.pop()
	return e.eval(en)
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
	c := New()
	for _, n := range a.names {
		c.Set(n, a.attrs[strings.ToLower(n)])
	}
	return c
}

// Merge copies every attribute of b into a, overwriting duplicates.
func (a *Ad) Merge(b *Ad) *Ad {
	for _, n := range b.names {
		a.Set(n, b.attrs[strings.ToLower(n)])
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
	if _, ok := a.Lookup("Requirements"); !ok {
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
	for i, n := range a.names {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%s = %s", n, a.attrs[strings.ToLower(n)].String())
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
	for _, n := range a.names {
		x.Attrs = append(x.Attrs, xmlAttr{Name: n, Expr: a.attrs[strings.ToLower(n)].String()})
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
	if a.attrs == nil {
		a.attrs = make(map[string]Expr)
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
	for _, n := range a.names {
		dst = append(dst, `<attr name="`...)
		dst = xmlwire.AppendEscaped(dst, n)
		dst = append(dst, `">`...)
		dst = appendExprXML(dst, a.attrs[strings.ToLower(n)])
		dst = append(dst, "</attr>"...)
	}
	return append(dst, "</classad>"...)
}

// appendExprXML appends e's source text, XML-escaped. Literals that
// need no escaping — most of what an ad on the wire holds — skip the
// String call and the escaper.
func appendExprXML(dst []byte, e Expr) []byte {
	if l, ok := e.(litExpr); ok {
		switch l.v.kind {
		case KindBool:
			return strconv.AppendBool(dst, l.v.b)
		case KindInt:
			return strconv.AppendInt(dst, l.v.i, 10)
		case KindReal:
			return strconv.AppendFloat(dst, l.v.r, 'g', -1, 64)
		case KindString:
			if quotesToItself(l.v.s) {
				dst = append(dst, "&#34;"...)
				dst = append(dst, l.v.s...)
				return append(dst, "&#34;"...)
			}
		}
	}
	return xmlwire.AppendEscaped(dst, e.String())
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
	n := s.CountAhead("<attr", "</classad>")
	if a.attrs == nil {
		a.attrs = make(map[string]Expr, n)
	}
	if a.names == nil && n > 0 {
		a.names = make([]string, 0, n)
		// The count is a guess ("<attr0" counts too): an ad that ends
		// up empty must look as if nothing had been reserved.
		defer func() {
			if len(a.names) == 0 {
				a.names = nil
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
		ex, ok := literal(src)
		if !ok {
			if ex, err = parseExpr(string(src)); err != nil {
				return fmt.Errorf("classad: attribute %q: %w", name, err)
			}
		}
		a.Set(name, ex)
		return nil
	})
}
