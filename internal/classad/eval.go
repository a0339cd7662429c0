package classad

import (
	"cmp"
	"math"
	"regexp"
	"strings"
)

// env is the evaluation environment: the ad in whose scope evaluation
// is now (self), the candidate it is being matched against (target,
// possibly nil), and the attribute references being evaluated, for
// cycle detection: each with the scope it was reached through ("my" or
// "target", relative to self at that moment).
type env struct {
	self   *Ad
	target *Ad
	stack  []attrExpr
}

func (e *env) active(scope, name string) bool {
	for _, r := range e.stack {
		if r.scope == scope && foldCompare(r.name, name) == 0 {
			return true
		}
	}
	return false
}

func (e litExpr) eval(*env) Value { return e.v }

// An unscoped reference resolves in self and, if self does not define
// it, in target.
func (e attrExpr) eval(en *env) Value {
	if e.scope != "target" {
		if v, ok := e.evalIn(en, en.self, "my"); ok || e.scope == "my" {
			return v
		}
	}
	v, _ := e.evalIn(en, en.target, "target")
	return v
}

// evalIn evaluates the attribute as ad defines it; ok is false when ad
// is nil or does not define it.
func (e attrExpr) evalIn(en *env, ad *Ad, scope string) (v Value, ok bool) {
	i := ad.find(e.name)
	if i < 0 {
		return Undefined(), false
	}
	if en.active(scope, e.name) {
		return Errorf("cyclic reference to %q", e.name), true
	}
	at := &ad.attrs[i]
	x := at.expr()
	if x == nil {
		return at.val, true
	}
	// Attribute bodies evaluate with "self" rebound to the ad that
	// defines them, per classad scoping.
	self, target := en.self, en.target
	if ad != self {
		en.self, en.target = target, self
	}
	en.stack = append(en.stack, attrExpr{scope, e.name})
	v = x.eval(en)
	en.stack = en.stack[:len(en.stack)-1]
	en.self, en.target = self, target
	return v, true
}

func (e unaryExpr) eval(env *env) Value {
	v := e.x.eval(env)
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
}

func (e binaryExpr) eval(env *env) Value {
	switch e.op {
	case "&&":
		return evalAnd(e.x.eval(env), func() Value { return e.y.eval(env) })
	case "||":
		return evalOr(e.x.eval(env), func() Value { return e.y.eval(env) })
	case "=?=":
		return Bool(e.x.eval(env).Equal(e.y.eval(env)))
	case "=!=":
		return Bool(!e.x.eval(env).Equal(e.y.eval(env)))
	}
	x, y := e.x.eval(env), e.y.eval(env)
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
		return evalCompare(e.op, x, y)
	}
	return Errorf("unknown binary op %q", e.op)
}

// evalAnd implements classad three-valued conjunction: false dominates
// UNDEFINED, ERROR dominates everything.
func evalAnd(x Value, ry func() Value) Value {
	if x.IsError() {
		return x
	}
	if b, ok := x.BoolVal(); ok && !b {
		return Bool(false)
	}
	y := ry()
	if y.IsError() {
		return y
	}
	if b, ok := y.BoolVal(); ok && !b {
		return Bool(false)
	}
	if x.IsUndefined() || y.IsUndefined() {
		return Undefined()
	}
	bx, okx := x.BoolVal()
	by, oky := y.BoolVal()
	if !okx || !oky {
		return Errorf("&& applied to %s and %s", x.Kind(), y.Kind())
	}
	return Bool(bx && by)
}

// evalOr implements three-valued disjunction: true dominates UNDEFINED.
func evalOr(x Value, ry func() Value) Value {
	if x.IsError() {
		return x
	}
	if b, ok := x.BoolVal(); ok && b {
		return Bool(true)
	}
	y := ry()
	if y.IsError() {
		return y
	}
	if b, ok := y.BoolVal(); ok && b {
		return Bool(true)
	}
	if x.IsUndefined() || y.IsUndefined() {
		return Undefined()
	}
	bx, okx := x.BoolVal()
	by, oky := y.BoolVal()
	if !okx || !oky {
		return Errorf("|| applied to %s and %s", x.Kind(), y.Kind())
	}
	return Bool(bx || by)
}

func evalArith(op string, x, y Value) Value {
	xi, xIsInt := x.IntVal()
	yi, yIsInt := y.IntVal()
	if xIsInt && yIsInt {
		switch op {
		case "+":
			return Int(xi + yi)
		case "-":
			return Int(xi - yi)
		case "*":
			return Int(xi * yi)
		case "/":
			if yi == 0 {
				return Errorf("division by zero")
			}
			return Int(xi / yi)
		case "%":
			if yi == 0 {
				return Errorf("modulo by zero")
			}
			return Int(xi % yi)
		}
	}
	// String concatenation via +.
	if op == "+" {
		if xs, ok := x.StringVal(); ok {
			if ys, ok := y.StringVal(); ok {
				return Str(xs + ys)
			}
		}
	}
	xf, okx := x.Number()
	yf, oky := y.Number()
	if !okx || !oky {
		return Errorf("%s applied to %s and %s", op, x.Kind(), y.Kind())
	}
	switch op {
	case "+":
		return Real(xf + yf)
	case "-":
		return Real(xf - yf)
	case "*":
		return Real(xf * yf)
	case "/":
		if yf == 0 {
			return Errorf("division by zero")
		}
		return Real(xf / yf)
	case "%":
		if yf == 0 {
			return Errorf("modulo by zero")
		}
		return Real(math.Mod(xf, yf))
	}
	return Errorf("unknown arithmetic op %q", op)
}

func evalCompare(op string, x, y Value) Value {
	// Numeric comparison with int/real coercion.
	if xf, ok := x.Number(); ok {
		yf, ok := y.Number()
		if !ok {
			return Errorf("%s applied to %s and %s", op, x.Kind(), y.Kind())
		}
		return cmpResult(op, compareFloats(xf, yf))
	}
	if xs, ok := x.StringVal(); ok {
		ys, ok := y.StringVal()
		if !ok {
			return Errorf("%s applied to %s and %s", op, x.Kind(), y.Kind())
		}
		// Classad string comparison is case-insensitive.
		return cmpResult(op, foldCompare(xs, ys))
	}
	if xb, ok := x.BoolVal(); ok {
		yb, ok := y.BoolVal()
		if !ok {
			return Errorf("%s applied to %s and %s", op, x.Kind(), y.Kind())
		}
		switch op {
		case "==":
			return Bool(xb == yb)
		case "!=":
			return Bool(xb != yb)
		}
		return Errorf("%s not defined on booleans", op)
	}
	return Errorf("%s applied to %s and %s", op, x.Kind(), y.Kind())
}

// foldCompare is strings.Compare(strings.ToLower(a), strings.ToLower(b)),
// the package's rule for names and for strings: for ASCII that is a
// byte-wise fold, done in place without allocating, and the first byte
// >= 0x80 in either string sends both through the rule as written.
func foldCompare(a, b string) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		c, d := a[i], b[i]
		if c|d >= 0x80 {
			return strings.Compare(strings.ToLower(a), strings.ToLower(b))
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if 'A' <= d && d <= 'Z' {
			d += 'a' - 'A'
		}
		if c != d {
			return cmp.Compare(c, d)
		}
	}
	// One is a prefix of the other up to ASCII case, and lower-casing
	// what follows the prefix cannot make it empty.
	return cmp.Compare(len(a), len(b))
}

func compareFloats(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpResult(op string, c int) Value {
	switch op {
	case "==":
		return Bool(c == 0)
	case "!=":
		return Bool(c != 0)
	case "<":
		return Bool(c < 0)
	case "<=":
		return Bool(c <= 0)
	case ">":
		return Bool(c > 0)
	case ">=":
		return Bool(c >= 0)
	}
	return Errorf("unknown comparison %q", op)
}

func (e condExpr) eval(env *env) Value {
	c := e.c.eval(env)
	if c.IsError() || c.IsUndefined() {
		return c
	}
	b, ok := c.BoolVal()
	if !ok {
		return Errorf("condition of ?: is %s", c.Kind())
	}
	if b {
		return e.a.eval(env)
	}
	return e.b.eval(env)
}

func (e listExpr) eval(env *env) Value {
	vs := make([]Value, len(e.elems))
	for i, x := range e.elems {
		vs[i] = x.eval(env)
	}
	return List(vs...)
}

// builtins maps lower-case function names to implementations.
var builtins = map[string]func(args []Value) Value{
	"member": func(args []Value) Value {
		if len(args) != 2 {
			return Errorf("member wants 2 args")
		}
		l, ok := args[1].ListVal()
		if !ok {
			return Errorf("member: second arg is %s, want list", args[1].Kind())
		}
		for _, e := range l {
			if looseEqual(args[0], e) {
				return Bool(true)
			}
		}
		return Bool(false)
	},
	"size": func(args []Value) Value {
		if len(args) != 1 {
			return Errorf("size wants 1 arg")
		}
		if l, ok := args[0].ListVal(); ok {
			return Int(int64(len(l)))
		}
		if s, ok := args[0].StringVal(); ok {
			return Int(int64(len(s)))
		}
		return Errorf("size: arg is %s", args[0].Kind())
	},
	"strcat": func(args []Value) Value {
		var b strings.Builder
		for _, a := range args {
			s, ok := a.StringVal()
			if !ok {
				return Errorf("strcat: arg is %s", a.Kind())
			}
			b.WriteString(s)
		}
		return Str(b.String())
	},
	"tolower": func(args []Value) Value {
		if len(args) != 1 {
			return Errorf("tolower wants 1 arg")
		}
		s, ok := args[0].StringVal()
		if !ok {
			return Errorf("tolower: arg is %s", args[0].Kind())
		}
		return Str(strings.ToLower(s))
	},
	"toupper": func(args []Value) Value {
		if len(args) != 1 {
			return Errorf("toupper wants 1 arg")
		}
		s, ok := args[0].StringVal()
		if !ok {
			return Errorf("toupper: arg is %s", args[0].Kind())
		}
		return Str(strings.ToUpper(s))
	},
	"int": func(args []Value) Value {
		if len(args) != 1 {
			return Errorf("int wants 1 arg")
		}
		if f, ok := args[0].Number(); ok {
			return Int(int64(f))
		}
		return Errorf("int: arg is %s", args[0].Kind())
	},
	"real": func(args []Value) Value {
		if len(args) != 1 {
			return Errorf("real wants 1 arg")
		}
		if f, ok := args[0].Number(); ok {
			return Real(f)
		}
		return Errorf("real: arg is %s", args[0].Kind())
	},
	"floor": func(args []Value) Value {
		if len(args) != 1 {
			return Errorf("floor wants 1 arg")
		}
		if f, ok := args[0].Number(); ok {
			return Int(int64(math.Floor(f)))
		}
		return Errorf("floor: arg is %s", args[0].Kind())
	},
	"ceiling": func(args []Value) Value {
		if len(args) != 1 {
			return Errorf("ceiling wants 1 arg")
		}
		if f, ok := args[0].Number(); ok {
			return Int(int64(math.Ceil(f)))
		}
		return Errorf("ceiling: arg is %s", args[0].Kind())
	},
	"min": func(args []Value) Value { return minMax(args, -1) },
	"max": func(args []Value) Value { return minMax(args, 1) },
	"ifthenelse": func(args []Value) Value {
		if len(args) != 3 {
			return Errorf("ifThenElse wants 3 args")
		}
		if args[0].IsError() || args[0].IsUndefined() {
			return args[0]
		}
		b, ok := args[0].BoolVal()
		if !ok {
			return Errorf("ifThenElse: condition is %s", args[0].Kind())
		}
		if b {
			return args[1]
		}
		return args[2]
	},
	"regexp": func(args []Value) Value {
		if len(args) != 2 {
			return Errorf("regexp wants 2 args (pattern, string)")
		}
		pat, ok := args[0].StringVal()
		if !ok {
			return Errorf("regexp: pattern is %s", args[0].Kind())
		}
		s, ok := args[1].StringVal()
		if !ok {
			return Errorf("regexp: subject is %s", args[1].Kind())
		}
		re, err := regexp.Compile(pat)
		if err != nil {
			return Errorf("regexp: bad pattern: %v", err)
		}
		return Bool(re.MatchString(s))
	},
	"isundefined": func(args []Value) Value {
		if len(args) != 1 {
			return Errorf("isUndefined wants 1 arg")
		}
		return Bool(args[0].IsUndefined())
	},
	"iserror": func(args []Value) Value {
		if len(args) != 1 {
			return Errorf("isError wants 1 arg")
		}
		return Bool(args[0].IsError())
	},
}

func minMax(args []Value, dir int) Value {
	if len(args) == 0 {
		return Errorf("min/max wants at least 1 arg")
	}
	vals := args
	if len(args) == 1 {
		if l, ok := args[0].ListVal(); ok {
			vals = l
		}
	}
	if len(vals) == 0 {
		return Undefined()
	}
	best, ok := vals[0].Number()
	if !ok {
		return Errorf("min/max: arg is %s", vals[0].Kind())
	}
	isInt := vals[0].Kind() == KindInt
	for _, v := range vals[1:] {
		f, ok := v.Number()
		if !ok {
			return Errorf("min/max: arg is %s", v.Kind())
		}
		if v.Kind() != KindInt {
			isInt = false
		}
		if (dir < 0 && f < best) || (dir > 0 && f > best) {
			best = f
		}
	}
	if isInt {
		return Int(int64(best))
	}
	return Real(best)
}

// looseEqual compares with the numeric coercion of ==, falling back to
// strict equality for non-numerics; string comparison is
// case-insensitive as in the language.
func looseEqual(a, b Value) bool {
	if af, ok := a.Number(); ok {
		if bf, ok := b.Number(); ok {
			return af == bf
		}
		return false
	}
	if as, ok := a.StringVal(); ok {
		if bs, ok := b.StringVal(); ok {
			return strings.EqualFold(as, bs)
		}
		return false
	}
	return a.Equal(b)
}

func (e callExpr) eval(env *env) Value {
	fn := builtins[e.name]
	if fn == nil {
		return Errorf("unknown function %q", e.name)
	}
	// isUndefined/isError must see raw values, which eval already
	// produces; evaluate args eagerly.
	args := make([]Value, len(e.args))
	for i, a := range e.args {
		args[i] = a.eval(env)
	}
	return fn(args)
}
