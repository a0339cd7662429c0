package classad

import (
	"encoding/xml"
	"strconv"
	"strings"

	"vmplants/internal/xmlwire"
)

// This file is the Ad as it stood before attributes became one slice:
// a list of names beside a map from strings.ToLower(name) to a boxed
// expression, an evaluator that keys its cycle stack with
// scope + "\x00" + strings.ToLower(name), and string comparison that
// lower-cases both operands. It shares the expression and value types,
// the operators on values and the builtins with the package, and none
// of the attribute table, the name matching or the attribute
// evaluation — so it is an independent oracle for those.

type oracleAd struct {
	names []string        // insertion order, original spelling
	attrs map[string]Expr // lower-case name -> expression
}

func newOracleAd() *oracleAd { return &oracleAd{attrs: make(map[string]Expr)} }

func (a *oracleAd) Len() int { return len(a.names) }

func (a *oracleAd) Names() []string { return append([]string(nil), a.names...) }

func (a *oracleAd) Set(name string, e Expr) *oracleAd {
	key := strings.ToLower(name)
	if _, ok := a.attrs[key]; !ok {
		a.names = append(a.names, name)
	}
	a.attrs[key] = e
	return a
}

func (a *oracleAd) SetStrings(name string, vs ...string) *oracleAd {
	elems := make([]Value, len(vs))
	for i, s := range vs {
		elems[i] = Str(s)
	}
	return a.Set(name, Lit(List(elems...)))
}

func (a *oracleAd) SetExprString(name, src string) error {
	e, err := ParseExpr(src)
	if err != nil {
		return err
	}
	a.Set(name, e)
	return nil
}

func (a *oracleAd) Delete(name string) bool {
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

func (a *oracleAd) Lookup(name string) (Expr, bool) {
	if a == nil {
		return nil, false
	}
	e, ok := a.attrs[strings.ToLower(name)]
	return e, ok
}

func (a *oracleAd) Clone() *oracleAd {
	c := newOracleAd()
	for _, n := range a.names {
		c.Set(n, a.attrs[strings.ToLower(n)])
	}
	return c
}

func (a *oracleAd) Merge(b *oracleAd) *oracleAd {
	for _, n := range b.names {
		a.Set(n, b.attrs[strings.ToLower(n)])
	}
	return a
}

func (a *oracleAd) String() string {
	var b strings.Builder
	b.WriteString("[ ")
	for i, n := range a.names {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(n + " = " + a.attrs[strings.ToLower(n)].String())
	}
	b.WriteString(" ]")
	return b.String()
}

func (a *oracleAd) AppendXML(dst []byte) []byte {
	dst = append(dst, "<classad>"...)
	for _, n := range a.names {
		dst = append(dst, `<attr name="`...)
		dst = xmlwire.AppendEscaped(dst, n)
		dst = append(dst, `">`...)
		dst = oracleAppendExprXML(dst, a.attrs[strings.ToLower(n)])
		dst = append(dst, "</attr>"...)
	}
	return append(dst, "</classad>"...)
}

func oracleAppendExprXML(dst []byte, e Expr) []byte {
	if l, ok := e.(litExpr); ok {
		if b, ok := l.v.BoolVal(); ok {
			return strconv.AppendBool(dst, b)
		}
		if i, ok := l.v.IntVal(); ok {
			return strconv.AppendInt(dst, i, 10)
		}
		if r, ok := l.v.RealVal(); ok {
			return strconv.AppendFloat(dst, r, 'g', -1, 64)
		}
		if s, ok := l.v.StringVal(); ok && quotesToItself(s) {
			dst = append(dst, "&#34;"...)
			dst = append(dst, s...)
			return append(dst, "&#34;"...)
		}
	}
	return xmlwire.AppendEscaped(dst, e.String())
}

// oracleUnmarshal decodes the wire form the way UnmarshalXML did:
// encoding/xml for the document, ParseExpr for each attribute.
func oracleUnmarshal(doc []byte) (*oracleAd, error) {
	var x xmlAd
	if err := xml.Unmarshal(doc, &x); err != nil {
		return nil, err
	}
	a := newOracleAd()
	for _, at := range x.Attrs {
		e, err := ParseExpr(at.Expr)
		if err != nil {
			return nil, err
		}
		a.Set(at.Name, e)
	}
	return a, nil
}

func (a *oracleAd) EvalAgainst(name string, other *oracleAd) Value {
	e, ok := a.Lookup(name)
	if !ok {
		return Undefined()
	}
	en := &oracleEnv{self: a, target: other}
	if !en.push("my", name) {
		return Errorf("cyclic reference to %q", name)
	}
	defer en.pop()
	return oracleEval(e, en)
}

func (a *oracleAd) EvalExpr(e Expr, other *oracleAd) Value {
	return oracleEval(e, &oracleEnv{self: a, target: other})
}

func oracleMatch(a, b *oracleAd) bool {
	return oracleHalfMatch(a, b) && oracleHalfMatch(b, a)
}

func oracleHalfMatch(a, b *oracleAd) bool {
	if _, ok := a.Lookup("Requirements"); !ok {
		return true
	}
	return a.EvalAgainst("Requirements", b).IsTrue()
}

func oracleRank(a, b *oracleAd) float64 {
	f, ok := a.EvalAgainst("Rank", b).Number()
	if !ok {
		return 0
	}
	return f
}

type oracleEnv struct {
	self   *oracleAd
	target *oracleAd
	stack  []string // "scope\x00name" entries currently being evaluated
}

func (e *oracleEnv) push(scope, name string) bool {
	key := scope + "\x00" + strings.ToLower(name)
	for _, k := range e.stack {
		if k == key {
			return false // cycle
		}
	}
	e.stack = append(e.stack, key)
	return true
}

func (e *oracleEnv) pop() { e.stack = e.stack[:len(e.stack)-1] }

func (e *oracleEnv) otherOf(ad *oracleAd) *oracleAd {
	if ad == e.self {
		return e.target
	}
	return e.self
}

func oracleEvalAttr(e attrExpr, en *oracleEnv) Value {
	lookup := func(ad *oracleAd, scope string) (Value, bool) {
		if ad == nil {
			return Undefined(), false
		}
		ex, ok := ad.Lookup(e.name)
		if !ok {
			return Undefined(), false
		}
		if !en.push(scope, e.name) {
			return Errorf("cyclic reference to %q", e.name), true
		}
		defer en.pop()
		sub := &oracleEnv{self: ad, target: en.otherOf(ad), stack: en.stack}
		return oracleEval(ex, sub), true
	}
	switch e.scope {
	case "my":
		v, _ := lookup(en.self, "my")
		return v
	case "target":
		v, _ := lookup(en.target, "target")
		return v
	default:
		if v, ok := lookup(en.self, "my"); ok {
			return v
		}
		if v, ok := lookup(en.target, "target"); ok {
			return v
		}
		return Undefined()
	}
}

// oracleEval walks the expression the way the eval methods do, with
// attribute references resolved in oracle ads.
func oracleEval(e Expr, en *oracleEnv) Value {
	switch e := e.(type) {
	case litExpr:
		return e.v
	case attrExpr:
		return oracleEvalAttr(e, en)
	case unaryExpr:
		v := oracleEval(e.x, en)
		if v.IsError() {
			return v
		}
		switch e.op {
		case "!":
			if v.IsUndefined() {
				return v
			}
			if b, ok := v.BoolVal(); ok {
				return Bool(!b)
			}
			return Errorf("! applied to %s", v.Kind())
		case "-":
			if v.IsUndefined() {
				return v
			}
			if i, ok := v.IntVal(); ok {
				return Int(-i)
			}
			if r, ok := v.RealVal(); ok {
				return Real(-r)
			}
			return Errorf("unary - applied to %s", v.Kind())
		}
		return Errorf("unknown unary op %q", e.op)
	case binaryExpr:
		switch e.op {
		case "&&":
			return evalAnd(oracleEval(e.x, en), func() Value { return oracleEval(e.y, en) })
		case "||":
			return evalOr(oracleEval(e.x, en), func() Value { return oracleEval(e.y, en) })
		case "=?=":
			return Bool(oracleEval(e.x, en).Equal(oracleEval(e.y, en)))
		case "=!=":
			return Bool(!oracleEval(e.x, en).Equal(oracleEval(e.y, en)))
		}
		x, y := oracleEval(e.x, en), oracleEval(e.y, en)
		if x.IsError() {
			return x
		}
		if y.IsError() {
			return y
		}
		if x.IsUndefined() || y.IsUndefined() {
			return Undefined()
		}
		switch e.op {
		case "+", "-", "*", "/", "%":
			return evalArith(e.op, x, y)
		case "==", "!=", "<", "<=", ">", ">=":
			xs, xok := x.StringVal()
			ys, yok := y.StringVal()
			if xok && yok {
				return cmpResult(e.op, strings.Compare(strings.ToLower(xs), strings.ToLower(ys)))
			}
			return evalCompare(e.op, x, y)
		}
		return Errorf("unknown binary op %q", e.op)
	case condExpr:
		c := oracleEval(e.c, en)
		if c.IsError() || c.IsUndefined() {
			return c
		}
		b, ok := c.BoolVal()
		if !ok {
			return Errorf("condition of ?: is %s", c.Kind())
		}
		if b {
			return oracleEval(e.a, en)
		}
		return oracleEval(e.b, en)
	case listExpr:
		vs := make([]Value, len(e.elems))
		for i, x := range e.elems {
			vs[i] = oracleEval(x, en)
		}
		return List(vs...)
	case callExpr:
		fn := builtins[e.name]
		if fn == nil {
			return Errorf("unknown function %q", e.name)
		}
		args := make([]Value, len(e.args))
		for i, a := range e.args {
			args[i] = oracleEval(a, en)
		}
		return fn(args)
	}
	panic("oracleEval: unknown expression type")
}
