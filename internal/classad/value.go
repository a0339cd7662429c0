// Package classad implements the classified-advertisement (classad)
// data model of Raman, Livny and Solomon's Matchmaking framework (HPDC
// 1998), which the VMPlants paper uses to describe virtual machines:
// creation returns "a classad with (attribute,value) pairs" and the VM
// Information System stores classads for active machines.
//
// A classad is an ordered set of attribute definitions whose values are
// expressions over a small language with three-valued logic: evaluation
// may yield UNDEFINED (an attribute reference that resolves nowhere) or
// ERROR (a type mismatch) in addition to ordinary values. Two ads match
// when each ad's Requirements expression evaluates to true in the
// context of the other.
package classad

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unsafe"
)

// Kind enumerates the runtime types of classad values.
type Kind int

// Value kinds.
const (
	KindUndefined Kind = iota
	KindError
	KindBool
	KindInt
	KindReal
	KindString
	KindList
)

func (k Kind) String() string {
	switch k {
	case KindUndefined:
		return "undefined"
	case KindError:
		return "error"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindReal:
		return "real"
	case KindString:
		return "string"
	case KindList:
		return "list"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// kindExpr marks the value an attribute bound to an expression holds:
// its p points to the expression. No such value leaves the package.
const kindExpr Kind = -1

// Value is the result of evaluating a classad expression. It is 40
// bytes: a list keeps only where its elements start, its length in n.
type Value struct {
	kind Kind
	n    uint64         // KindBool: 0 or 1; KindInt: the int64; KindReal: the float64's bits; KindList: the length
	s    string         // KindString: the string; KindError: what went wrong
	p    unsafe.Pointer // KindList: the first element (*Value), nil when there is none; kindExpr: the *Expr
}

// Constructors.

// Undefined returns the UNDEFINED value.
func Undefined() Value { return Value{kind: KindUndefined} }

// Errorf returns an ERROR value carrying a diagnostic message.
func Errorf(format string, args ...any) Value {
	return Value{kind: KindError, s: fmt.Sprintf(format, args...)}
}

// Bool returns a boolean value.
func Bool(b bool) Value {
	v := Value{kind: KindBool}
	if b {
		v.n = 1
	}
	return v
}

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KindInt, n: uint64(i)} }

// Real returns a floating-point value.
func Real(r float64) Value { return Value{kind: KindReal, n: math.Float64bits(r)} }

// Str returns a string value.
func Str(s string) Value { return Value{kind: KindString, s: s} }

// List returns a list value; it shares vs.
func List(vs ...Value) Value {
	v := Value{kind: KindList, n: uint64(len(vs))}
	if len(vs) > 0 {
		v.p = unsafe.Pointer(&vs[0])
	}
	return v
}

// list returns the elements of a list value.
func (v *Value) list() []Value { return unsafe.Slice((*Value)(v.p), v.n) }

// exprValue returns the value an attribute bound to e holds. Expressions
// are immutable, so every copy of the value shares the box.
func exprValue(e Expr) Value { return Value{kind: kindExpr, p: unsafe.Pointer(&e)} }

// Strings returns a list value of string elements.
func Strings(vs ...string) Value {
	elems := make([]Value, len(vs))
	for i, s := range vs {
		elems[i] = Str(s)
	}
	return List(elems...)
}

// Kind reports the value's runtime type.
func (v Value) Kind() Kind { return v.kind }

// IsUndefined reports whether v is UNDEFINED.
func (v Value) IsUndefined() bool { return v.kind == KindUndefined }

// IsError reports whether v is ERROR.
func (v Value) IsError() bool { return v.kind == KindError }

// BoolVal returns the boolean and ok=true if v is a bool.
func (v Value) BoolVal() (bool, bool) { return v.IsTrue(), v.kind == KindBool }

// IntVal returns the integer and ok=true if v is an int.
func (v Value) IntVal() (int64, bool) {
	if v.kind != KindInt {
		return 0, false
	}
	return int64(v.n), true
}

// RealVal returns the float and ok=true if v is a real.
func (v Value) RealVal() (float64, bool) {
	if v.kind != KindReal {
		return 0, false
	}
	return math.Float64frombits(v.n), true
}

// StringVal returns the string and ok=true if v is a string.
func (v Value) StringVal() (string, bool) {
	if v.kind != KindString {
		return "", false
	}
	return v.s, true
}

// ListVal returns the elements and ok=true if v is a list.
func (v Value) ListVal() ([]Value, bool) {
	if v.kind != KindList {
		return nil, false
	}
	return v.list(), true
}

// Number returns v as a float64 when v is numeric (int or real).
func (v Value) Number() (float64, bool) {
	switch v.kind {
	case KindInt:
		return float64(int64(v.n)), true
	case KindReal:
		return math.Float64frombits(v.n), true
	}
	return 0, false
}

// IsTrue reports whether v is the boolean true.
func (v Value) IsTrue() bool { return v.kind == KindBool && v.n != 0 }

// Equal reports strict structural equality (same kind, same contents).
// Unlike the == operator in the expression language it never coerces,
// and UNDEFINED equals UNDEFINED.
func (v Value) Equal(w Value) bool {
	if v.kind != w.kind {
		return false
	}
	switch v.kind {
	case KindUndefined, KindError:
		return true
	case KindBool, KindInt:
		return v.n == w.n
	case KindReal:
		return math.Float64frombits(v.n) == math.Float64frombits(w.n)
	case KindString:
		return v.s == w.s
	case KindList:
		return slices.EqualFunc(v.list(), w.list(), Value.Equal)
	}
	return false
}

// same reports whether v and w are one scalar, bit for bit: a literal
// that is the same renders the same. Lists are never the same.
func (v Value) same(w Value) bool {
	return v.kind != KindList && v.kind == w.kind && v.n == w.n && v.s == w.s
}

// String renders the value in classad literal syntax.
func (v Value) String() string {
	switch v.kind {
	case KindUndefined:
		return "undefined"
	case KindError:
		return "error"
	case KindBool:
		return strconv.FormatBool(v.n != 0)
	case KindInt:
		return strconv.FormatInt(int64(v.n), 10)
	case KindReal:
		return strconv.FormatFloat(math.Float64frombits(v.n), 'g', -1, 64)
	case KindString:
		return strconv.Quote(v.s)
	case KindList:
		l := v.list()
		parts := make([]string, len(l))
		for i, e := range l {
			parts[i] = e.String()
		}
		return "{" + strings.Join(parts, ", ") + "}"
	}
	return "error"
}
