package classad

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// tokKind enumerates lexical token types of the classad language.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokInt
	tokReal
	tokString
	tokLParen   // (
	tokRParen   // )
	tokLBrace   // {
	tokRBrace   // }
	tokLBracket // [
	tokRBracket // ]
	tokComma    // ,
	tokSemi     // ;
	tokDot      // .
	tokAssign   // =
	tokPlus     // +
	tokMinus    // -
	tokStar     // *
	tokSlash    // /
	tokPercent  // %
	tokNot      // !
	tokAnd      // &&
	tokOr       // ||
	tokEq       // ==
	tokNe       // !=
	tokLt       // <
	tokLe       // <=
	tokGt       // >
	tokGe       // >=
	tokMetaEq   // =?=  is-identical-to
	tokMetaNe   // =!=  is-not-identical-to
	tokQuestion // ?
	tokColon    // :
)

type token struct {
	kind tokKind
	text string
	pos  int
}

// lexer splits classad source text into tokens.
type lexer struct {
	src  string
	pos  int
	toks []token
}

// lex tokenizes src, returning an error with position on bad input.
func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		l.toks = append(l.toks, t)
		if t.kind == tokEOF {
			return l.toks, nil
		}
	}
}

func (l *lexer) errf(pos int, format string, args ...any) error {
	return fmt.Errorf("classad: offset %d: %s", pos, fmt.Sprintf(format, args...))
}

func (l *lexer) next() (token, error) {
	// Skip whitespace and comments.
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		if c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		break
	}
	start := l.pos
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: start}, nil
	}
	c := l.src[l.pos]
	switch {
	case isIdentStart(rune(c)):
		for l.pos < len(l.src) && isIdentCont(rune(l.src[l.pos])) {
			l.pos++
		}
		return token{kind: tokIdent, text: l.src[start:l.pos], pos: start}, nil
	case c >= '0' && c <= '9':
		return l.lexNumber(start)
	case c == '"':
		return l.lexString(start)
	}
	l.pos++
	two := ""
	if l.pos < len(l.src) {
		two = l.src[start : l.pos+1]
	}
	switch c {
	case '(':
		return token{kind: tokLParen, text: "(", pos: start}, nil
	case ')':
		return token{kind: tokRParen, text: ")", pos: start}, nil
	case '{':
		return token{kind: tokLBrace, text: "{", pos: start}, nil
	case '}':
		return token{kind: tokRBrace, text: "}", pos: start}, nil
	case '[':
		return token{kind: tokLBracket, text: "[", pos: start}, nil
	case ']':
		return token{kind: tokRBracket, text: "]", pos: start}, nil
	case ',':
		return token{kind: tokComma, text: ",", pos: start}, nil
	case ';':
		return token{kind: tokSemi, text: ";", pos: start}, nil
	case '.':
		return token{kind: tokDot, text: ".", pos: start}, nil
	case '+':
		return token{kind: tokPlus, text: "+", pos: start}, nil
	case '-':
		return token{kind: tokMinus, text: "-", pos: start}, nil
	case '*':
		return token{kind: tokStar, text: "*", pos: start}, nil
	case '/':
		return token{kind: tokSlash, text: "/", pos: start}, nil
	case '%':
		return token{kind: tokPercent, text: "%", pos: start}, nil
	case '?':
		return token{kind: tokQuestion, text: "?", pos: start}, nil
	case ':':
		return token{kind: tokColon, text: ":", pos: start}, nil
	case '!':
		if two == "!=" {
			l.pos++
			return token{kind: tokNe, text: "!=", pos: start}, nil
		}
		return token{kind: tokNot, text: "!", pos: start}, nil
	case '&':
		if two == "&&" {
			l.pos++
			return token{kind: tokAnd, text: "&&", pos: start}, nil
		}
		return token{}, l.errf(start, "unexpected %q (did you mean &&?)", c)
	case '|':
		if two == "||" {
			l.pos++
			return token{kind: tokOr, text: "||", pos: start}, nil
		}
		return token{}, l.errf(start, "unexpected %q (did you mean ||?)", c)
	case '=':
		switch two {
		case "==":
			l.pos++
			return token{kind: tokEq, text: "==", pos: start}, nil
		case "=?":
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
				l.pos += 2
				return token{kind: tokMetaEq, text: "=?=", pos: start}, nil
			}
			return token{}, l.errf(start, "malformed =?= operator")
		case "=!":
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
				l.pos += 2
				return token{kind: tokMetaNe, text: "=!=", pos: start}, nil
			}
			return token{}, l.errf(start, "malformed =!= operator")
		}
		return token{kind: tokAssign, text: "=", pos: start}, nil
	case '<':
		if two == "<=" {
			l.pos++
			return token{kind: tokLe, text: "<=", pos: start}, nil
		}
		return token{kind: tokLt, text: "<", pos: start}, nil
	case '>':
		if two == ">=" {
			l.pos++
			return token{kind: tokGe, text: ">=", pos: start}, nil
		}
		return token{kind: tokGt, text: ">", pos: start}, nil
	}
	return token{}, l.errf(start, "unexpected character %q", c)
}

func (l *lexer) lexNumber(start int) (token, error) {
	isReal := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c >= '0' && c <= '9' {
			l.pos++
			continue
		}
		if c == '.' && !isReal && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9' {
			isReal = true
			l.pos++
			continue
		}
		if (c == 'e' || c == 'E') && l.pos+1 < len(l.src) {
			next := l.src[l.pos+1]
			if next >= '0' && next <= '9' || ((next == '+' || next == '-') && l.pos+2 < len(l.src) && l.src[l.pos+2] >= '0' && l.src[l.pos+2] <= '9') {
				isReal = true
				l.pos += 2
				for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
					l.pos++
				}
			}
		}
		break
	}
	kind := tokInt
	if isReal {
		kind = tokReal
	}
	return token{kind: kind, text: l.src[start:l.pos], pos: start}, nil
}

func (l *lexer) lexString(start int) (token, error) {
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch c {
		case '"':
			l.pos++
			return token{kind: tokString, text: b.String(), pos: start}, nil
		case '\\':
			// Every escape strconv.Quote writes — which is how String
			// prints a string — reads back.
			r, multibyte, tail, err := strconv.UnquoteChar(l.src[l.pos:], '"')
			if err != nil {
				return token{}, l.errf(l.pos, "bad escape in string")
			}
			if multibyte {
				b.WriteRune(r)
			} else {
				b.WriteByte(byte(r))
			}
			l.pos = len(l.src) - len(tail)
		default:
			b.WriteByte(c)
			l.pos++
		}
	}
	return token{}, l.errf(start, "unterminated string")
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentCont(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
