package classad

import (
	"fmt"
	"strconv"
	"strings"
)

// Expr is a parsed classad expression.
type Expr interface {
	// String renders the expression in classad source syntax.
	String() string
	// eval computes the expression's value in the given environment.
	eval(env *env) Value
}

// litExpr is a literal value.
type litExpr struct{ v Value }

func (e litExpr) String() string { return e.v.String() }

// attrExpr is an attribute reference, optionally scoped: x, MY.x,
// TARGET.x (self/other are accepted as aliases for MY/TARGET).
type attrExpr struct {
	scope string // "", "my", or "target" (normalized lower-case)
	name  string
}

func (e attrExpr) String() string {
	if e.scope == "" {
		return e.name
	}
	return e.scope + "." + e.name
}

// unaryExpr is !x or -x.
type unaryExpr struct {
	op string
	x  Expr
}

func (e unaryExpr) String() string { return e.op + e.x.String() }

// binaryExpr is a binary operation.
type binaryExpr struct {
	op   string
	x, y Expr
}

func (e binaryExpr) String() string {
	return "(" + e.x.String() + " " + e.op + " " + e.y.String() + ")"
}

// condExpr is c ? a : b.
type condExpr struct{ c, a, b Expr }

func (e condExpr) String() string {
	return "(" + e.c.String() + " ? " + e.a.String() + " : " + e.b.String() + ")"
}

// listExpr is {a, b, c}.
type listExpr struct{ elems []Expr }

func (e listExpr) String() string {
	parts := make([]string, len(e.elems))
	for i, x := range e.elems {
		parts[i] = x.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// callExpr is a builtin function call.
type callExpr struct {
	name string
	args []Expr
}

func (e callExpr) String() string {
	parts := make([]string, len(e.args))
	for i, x := range e.args {
		parts[i] = x.String()
	}
	return e.name + "(" + strings.Join(parts, ", ") + ")"
}

// Lit wraps a Value as a constant expression, for building ads in code.
func Lit(v Value) Expr { return litExpr{v} }

// Attr returns an unscoped attribute-reference expression.
func Attr(name string) Expr { return attrExpr{name: name} }

// ParseExpr parses a single classad expression from source text.
func ParseExpr(src string) (Expr, error) {
	if v, ok := literal(src); ok {
		return litExpr{v}, nil
	}
	return parseExpr(src)
}

// parseExpr is the lexer and parser, which read every expression.
func parseExpr(src string) (Expr, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, fmt.Errorf("classad: trailing input at offset %d", p.peek().pos)
	}
	return e, nil
}

// literal recognises the expressions that are one plain literal and
// nothing else — a quoted string without escapes, an unsigned integer,
// digits.digits, true or false — and returns the value the lexer and
// parser would read from them, without either. Everything else (escapes,
// signs, exponents, other spellings of the booleans, surrounding white
// space, numbers out of range) it declines, leaving the full parser to
// accept or reject it.
func literal[T string | []byte](src T) (Value, bool) {
	n := len(src)
	if n == 0 {
		return Value{}, false
	}
	switch c := src[0]; {
	case c == '"':
		if n < 2 || src[n-1] != '"' {
			return Value{}, false
		}
		for i := 1; i < n-1; i++ {
			if src[i] == '"' || src[i] == '\\' {
				return Value{}, false
			}
		}
		return Str(string(src[1 : n-1])), true
	case '0' <= c && c <= '9':
		isReal := false
		for i := 1; i < n; i++ {
			switch c := src[i]; {
			case '0' <= c && c <= '9':
			case c == '.' && !isReal && i+1 < n && '0' <= src[i+1] && src[i+1] <= '9':
				isReal = true
			default:
				return Value{}, false
			}
		}
		if isReal {
			r, err := strconv.ParseFloat(string(src), 64)
			return Real(r), err == nil
		}
		i, err := strconv.ParseInt(string(src), 10, 64)
		return Int(i), err == nil
	case string(src) == "true":
		return Bool(true), true
	case string(src) == "false":
		return Bool(false), true
	}
	return Value{}, false
}

// MustParseExpr is ParseExpr, panicking on error; for constants in code.
func MustParseExpr(src string) Expr {
	e, err := ParseExpr(src)
	if err != nil {
		panic(err)
	}
	return e
}

// parser is a recursive-descent parser over a token stream.
type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) advance() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) expect(k tokKind, what string) (token, error) {
	t := p.peek()
	if t.kind != k {
		return t, fmt.Errorf("classad: offset %d: expected %s, got %q", t.pos, what, t.text)
	}
	return p.advance(), nil
}

// Grammar, lowest to highest precedence:
//
//	expr     := or ('?' expr ':' expr)?
//	or       := and ('||' and)*
//	and      := cmp ('&&' cmp)*
//	cmp      := add (('=='|'!='|'<'|'<='|'>'|'>='|'=?='|'=!=') add)*
//	add      := mul (('+'|'-') mul)*
//	mul      := unary (('*'|'/'|'%') unary)*
//	unary    := ('!'|'-')* primary
//	primary  := literal | list | '(' expr ')' | call | ref
func (p *parser) parseExpr() (Expr, error) {
	c, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokQuestion {
		return c, nil
	}
	p.advance()
	a, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokColon, "':'"); err != nil {
		return nil, err
	}
	b, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return condExpr{c: c, a: a, b: b}, nil
}

func (p *parser) parseOr() (Expr, error) {
	x, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokOr {
		p.advance()
		y, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		x = binaryExpr{op: "||", x: x, y: y}
	}
	return x, nil
}

func (p *parser) parseAnd() (Expr, error) {
	x, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokAnd {
		p.advance()
		y, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		x = binaryExpr{op: "&&", x: x, y: y}
	}
	return x, nil
}

var cmpOps = map[tokKind]string{
	tokEq: "==", tokNe: "!=", tokLt: "<", tokLe: "<=",
	tokGt: ">", tokGe: ">=", tokMetaEq: "=?=", tokMetaNe: "=!=",
}

func (p *parser) parseCmp() (Expr, error) {
	x, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	for {
		op, ok := cmpOps[p.peek().kind]
		if !ok {
			return x, nil
		}
		p.advance()
		y, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		x = binaryExpr{op: op, x: x, y: y}
	}
}

func (p *parser) parseAdd() (Expr, error) {
	x, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch p.peek().kind {
		case tokPlus:
			op = "+"
		case tokMinus:
			op = "-"
		default:
			return x, nil
		}
		p.advance()
		y, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		x = binaryExpr{op: op, x: x, y: y}
	}
}

func (p *parser) parseMul() (Expr, error) {
	x, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch p.peek().kind {
		case tokStar:
			op = "*"
		case tokSlash:
			op = "/"
		case tokPercent:
			op = "%"
		default:
			return x, nil
		}
		p.advance()
		y, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		x = binaryExpr{op: op, x: x, y: y}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	switch p.peek().kind {
	case tokNot:
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return unaryExpr{op: "!", x: x}, nil
	case tokMinus:
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return unaryExpr{op: "-", x: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokInt:
		p.advance()
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("classad: offset %d: bad integer %q", t.pos, t.text)
		}
		return litExpr{Int(i)}, nil
	case tokReal:
		p.advance()
		r, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, fmt.Errorf("classad: offset %d: bad real %q", t.pos, t.text)
		}
		return litExpr{Real(r)}, nil
	case tokString:
		p.advance()
		return litExpr{Str(t.text)}, nil
	case tokLParen:
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		return e, nil
	case tokLBrace:
		return p.parseList()
	case tokIdent:
		return p.parseRefOrCall()
	}
	return nil, fmt.Errorf("classad: offset %d: unexpected %q", t.pos, t.text)
}

func (p *parser) parseList() (Expr, error) {
	p.advance() // {
	var elems []Expr
	if p.peek().kind == tokRBrace {
		p.advance()
		return listExpr{}, nil
	}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		elems = append(elems, e)
		switch p.peek().kind {
		case tokComma:
			p.advance()
		case tokRBrace:
			p.advance()
			return listExpr{elems: elems}, nil
		default:
			return nil, fmt.Errorf("classad: offset %d: expected ',' or '}' in list", p.peek().pos)
		}
	}
}

func (p *parser) parseRefOrCall() (Expr, error) {
	t := p.advance() // ident
	switch strings.ToLower(t.text) {
	case "true":
		return litExpr{Bool(true)}, nil
	case "false":
		return litExpr{Bool(false)}, nil
	case "undefined":
		return litExpr{Undefined()}, nil
	case "error":
		return litExpr{Errorf("literal error")}, nil
	}
	// Scoped reference: MY.x, TARGET.x, self.x, other.x.
	if p.peek().kind == tokDot {
		scope := normalizeScope(t.text)
		if scope == "" {
			return nil, fmt.Errorf("classad: offset %d: unknown scope %q (want MY/TARGET/self/other)", t.pos, t.text)
		}
		p.advance() // .
		nameTok, err := p.expect(tokIdent, "attribute name")
		if err != nil {
			return nil, err
		}
		return attrExpr{scope: scope, name: nameTok.text}, nil
	}
	// Function call.
	if p.peek().kind == tokLParen {
		name := strings.ToLower(t.text)
		if _, ok := builtins[name]; !ok {
			return nil, fmt.Errorf("classad: offset %d: unknown function %q", t.pos, t.text)
		}
		p.advance() // (
		var args []Expr
		if p.peek().kind == tokRParen {
			p.advance()
			return callExpr{name: name}, nil
		}
		for {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			switch p.peek().kind {
			case tokComma:
				p.advance()
			case tokRParen:
				p.advance()
				return callExpr{name: name, args: args}, nil
			default:
				return nil, fmt.Errorf("classad: offset %d: expected ',' or ')' in call", p.peek().pos)
			}
		}
	}
	return attrExpr{name: t.text}, nil
}

func normalizeScope(s string) string {
	switch strings.ToLower(s) {
	case "my", "self":
		return "my"
	case "target", "other":
		return "target"
	}
	return ""
}
