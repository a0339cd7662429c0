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
	"strconv"
	"strings"
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

// Value is the result of evaluating a classad expression.
type Value struct {
	kind Kind
	n    uint64 // KindBool: 0 or 1; KindInt: the int64; KindReal: the float64's bits
	s    string // KindString: the string; KindError: what went wrong
	l    []Value
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

// List returns a list value.
func List(vs ...Value) Value { return Value{kind: KindList, l: vs} }

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
func (v Value) ListVal() ([]Value, bool) { return v.l, v.kind == KindList }

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
		if len(v.l) != len(w.l) {
			return false
		}
		for i := range v.l {
			if !v.l[i].Equal(w.l[i]) {
				return false
			}
		}
		return true
	}
	return false
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
		parts := make([]string, len(v.l))
		for i, e := range v.l {
			parts[i] = e.String()
		}
		return "{" + strings.Join(parts, ", ") + "}"
	}
	return "error"
}
