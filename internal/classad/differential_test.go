package classad

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"vmplants/internal/xmlwire"
)

// The names scripts draw from: case pairs, the ASCII characters one bit
// away from a letter's case pair that are not letters (@ and `, [ and {,
// \ and |), digits, and the non-ASCII characters whose lower case is
// ASCII or differs between rules — the Kelvin sign (lowers to k), dotted
// capital İ, dotless ı, long ſ, é/É — plus the two names Match and Rank
// read.
var scriptNames = []string{
	"a", "A", "b", "B", "ab", "Ab", "aB", "AB", "k", "K", "\u212a", "a\u212a", "ak", "AK",
	"i", "I", "İ", "ı", "s", "S", "ſ", "ſs", "ss", "SS", "é", "É", "e", "E",
	"@", "`", "[", "{", "\\", "|", "a@", "a`", "a1", "A1", "1", "", "\xff", "\xfe",
	"Requirements", "requirements", "REQUIREMENTS", "Rank", "rank",
}

var scriptStrings = []string{
	"", "a", "A", "abc", "ABC", "abd", "ab", "x86", "X86", "\u212a", "k", "é", "É", "ſ", "s", "@", "`", "\xff", "plain text", `q"uo\te`,
}

var scriptSources = []string{
	`1`, `"str"`, `2.5`, `true`, `a + 1`, `A`, `b`, `my.a`, `other.b`, `TARGET.Rank + 1`, `MY.A == "x"`, `"abc" < "ABD"`,
	`member(a, {1, 2})`, `ifThenElse(a, 1, 2)`, `isUndefined(k)`, `strcat("a", s)`, `a && b`, `a || !b`, `a ? b : k`,
	`other.Requirements`, `-a`, `{a, b}`, `1 +`, `@`, ``, `"unterminated`, `nosuch(1)`, `a.b`,
	// Lists of literals fold into one value, in the parser and on the
	// wire; a list holding anything else stays an expression.
	`{}`, `{ }`, `{"a", "b"}`, `{"a","b"}`, "{ \"x86\" ,\n\t\"k\" }", `{{1, "a"}, {}, 2.5}`, `{"a\"b", "é"}`,
	`{x, "a"}`, `{"a", {b}}`, `member("b", {"a", "b"})`, `size({1, true, undefined})`, `{"a",}`, `{"a" "b"}`,
}

var scriptOps = []string{"+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=", "&&", "||", "=?=", "=!="}

var scriptCalls = []string{"member", "size", "strcat", "isundefined", "iserror", "ifthenelse", "min"}

var numbered = func() (names [80]string) {
	for n := range names {
		names[n] = fmt.Sprint("N", n)
	}
	return
}()

// script reads a byte string as a program over three ads; a script that
// runs out of bytes reads zeros, so every byte string is a program.
type script struct {
	b []byte
	i int
}

func (s *script) next() int {
	if s.i >= len(s.b) {
		return 0
	}
	s.i++
	return int(s.b[s.i-1])
}

func pick[T any](s *script, from []T) T { return from[s.next()%len(from)] }

func (s *script) value() Value {
	switch s.next() % 6 {
	case 0:
		return Int(int64(s.next()) - 3)
	case 1:
		return Real(float64(s.next()) / 4)
	case 2:
		return Bool(s.next()%2 == 0)
	case 3:
		return Undefined()
	default:
		return Str(pick(s, scriptStrings))
	}
}

func (s *script) expr(depth int) Expr {
	k := s.next() % 10
	if depth == 0 {
		k %= 5
	}
	switch k {
	case 0, 1:
		return Lit(s.value())
	case 2:
		return Attr(pick(s, scriptNames))
	case 3:
		return attrExpr{scope: "my", name: pick(s, scriptNames)}
	case 4:
		return attrExpr{scope: "target", name: pick(s, scriptNames)}
	case 5, 6:
		return binaryExpr{op: pick(s, scriptOps), x: s.expr(depth - 1), y: s.expr(depth - 1)}
	case 7:
		return unaryExpr{op: pick(s, []string{"!", "-"}), x: s.expr(depth - 1)}
	case 8:
		return condExpr{c: s.expr(depth - 1), a: s.expr(depth - 1), b: s.expr(depth - 1)}
	default:
		args := make([]Expr, s.next()%4)
		for i := range args {
			args[i] = s.expr(depth - 1)
		}
		return callExpr{name: pick(s, scriptCalls), args: args}
	}
}

func sameValue(a, b Value) bool {
	if a.kind == KindList && b.kind == KindList {
		return slices.EqualFunc(a.list(), b.list(), sameValue)
	}
	return a.kind == b.kind && a.n == b.n && a.s == b.s
}

// sameExpr is reflect.DeepEqual for expressions, but reads every element
// of a literal list with sameValue: DeepEqual compares where a list's
// elements are, not what they hold.
func sameExpr(x, y Expr) bool {
	switch x := x.(type) {
	case litExpr:
		y, ok := y.(litExpr)
		return ok && sameValue(x.v, y.v)
	case unaryExpr:
		y, ok := y.(unaryExpr)
		return ok && x.op == y.op && sameExpr(x.x, y.x)
	case binaryExpr:
		y, ok := y.(binaryExpr)
		return ok && x.op == y.op && sameExpr(x.x, y.x) && sameExpr(x.y, y.y)
	case condExpr:
		y, ok := y.(condExpr)
		return ok && sameExpr(x.c, y.c) && sameExpr(x.a, y.a) && sameExpr(x.b, y.b)
	case listExpr:
		y, ok := y.(listExpr)
		return ok && slices.EqualFunc(x.elems, y.elems, sameExpr)
	case callExpr:
		y, ok := y.(callExpr)
		return ok && x.name == y.name && slices.EqualFunc(x.args, y.args, sameExpr)
	}
	return reflect.DeepEqual(x, y)
}

// sameAd reports whether two ads hold the same definitions, spelled and
// ordered the same, and agree on their index and on being frozen.
func sameAd(a, b *Ad) bool {
	if a.Len() != b.Len() || a.frozen != b.frozen || !maps.Equal(a.index, b.index) {
		return false
	}
	for i := range a.attrs {
		x, y := &a.attrs[i], &b.attrs[i]
		ex, ey := x.expr(), y.expr()
		if x.name != y.name || (ex == nil) != (ey == nil) || ex == nil && !sameValue(x.val, y.val) || ex != nil && !sameExpr(ex, ey) {
			return false
		}
	}
	return true
}

// agree reports where an ad and its oracle differ: in rendering, names,
// wire form or the value of any attribute.
func agree(a *Ad, r *oracleAd) error {
	if a.String() != r.String() || !reflect.DeepEqual(a.Names(), r.Names()) || !bytes.Equal(a.AppendXML(nil), r.AppendXML(nil)) {
		return fmt.Errorf("differs\n new: %s\n old: %s", a, r)
	}
	for _, name := range a.Names() {
		if got, want := a.Eval(name), r.EvalAgainst(name, nil); !sameValue(got, want) {
			return fmt.Errorf("Eval(%q) = %#v, oracle %#v", name, got, want)
		}
	}
	return nil
}

// withOracle is With on the oracle: a copy with name bound to v.
func withOracle(r *oracleAd, name string, v Value) *oracleAd { return r.Clone().Set(name, Lit(v)) }

func sameErr(a, b error) bool {
	return (a == nil) == (b == nil) && (a == nil || a.Error() == b.Error())
}

// runScript runs one program on the Ad and on the map-backed oracle and
// reports the first step at which they differ. After every step the ads
// the step touched must be as long and (a long ad every eighth step)
// print the same; at the end all three must agree on Names and on the
// wire form too.
func runScript(prog []byte) error {
	s := &script{b: prog}
	var ads [3]*Ad
	var ref [3]*oracleAd
	for i := range ads {
		ads[i], ref[i] = New(), newOracleAd()
	}
	ads[2] = new(Ad) // the zero Ad is an ad
	for step := 0; s.i < len(s.b); step++ {
		i, j := s.next()%3, s.next()%3
		a, r := ads[i], ref[i]
		name := pick(s, scriptNames)
		fail := func(format string, args ...any) error {
			return fmt.Errorf("step %d ad %d name %q: %s\n new: %s\n old: %s", step, i, name, fmt.Sprintf(format, args...), ads[i], ref[i])
		}
		op := s.next() % 28
		switch op {
		case 0, 1:
			e := s.expr(2)
			a.Set(name, e)
			r.Set(name, e)
		case 2:
			v := int64(s.next())
			a.SetInt(name, v)
			r.Set(name, Lit(Int(v)))
		case 3:
			v := float64(s.next()) / 8
			a.SetReal(name, v)
			r.Set(name, Lit(Real(v)))
		case 4:
			v := pick(s, scriptStrings)
			a.SetString(name, v)
			r.Set(name, Lit(Str(v)))
		case 5:
			v := s.next()%2 == 0
			a.SetBool(name, v)
			r.Set(name, Lit(Bool(v)))
		case 6:
			vs := scriptStrings[:s.next()%4]
			a.SetValue(name, Strings(vs...))
			r.SetStrings(name, vs...)
		case 7:
			src := pick(s, scriptSources)
			if got, want := a.SetExprString(name, src), r.SetExprString(name, src); !sameErr(got, want) {
				return fail("SetExprString(%q) = %v, oracle %v", src, got, want)
			}
		case 8, 9:
			if got, want := a.Delete(name), r.Delete(name); got != want {
				return fail("Delete = %v, oracle %v", got, want)
			}
		case 10:
			a.Merge(ads[j])
			r.Merge(ref[j])
		case 11:
			ads[j], ref[j] = a.Clone(), r.Clone()
		case 12:
			got, gok := a.Lookup(name)
			want, wok := r.Lookup(name)
			if gok != wok || gok && !sameExpr(got, want) {
				return fail("Lookup = %v %v, oracle %v %v", got, gok, want, wok)
			}
		case 13, 14:
			if got, want := a.Eval(name), r.EvalAgainst(name, nil); !sameValue(got, want) {
				return fail("Eval = %#v, oracle %#v", got, want)
			}
		case 15, 16:
			if got, want := a.EvalAgainst(name, ads[j]), r.EvalAgainst(name, ref[j]); !sameValue(got, want) {
				return fail("EvalAgainst(ad %d) = %#v, oracle %#v", j, got, want)
			}
		case 17:
			e := s.expr(2)
			if got, want := a.EvalExpr(e, ads[j]), r.EvalExpr(e, ref[j]); !sameValue(got, want) {
				return fail("EvalExpr(%s, ad %d) = %#v, oracle %#v", e, j, got, want)
			}
		case 18:
			if got, want := Match(a, ads[j]), oracleMatch(r, ref[j]); got != want {
				return fail("Match(ad %d) = %v, oracle %v", j, got, want)
			}
		case 19:
			if got, want := Rank(a, ads[j]), oracleRank(r, ref[j]); got != want {
				return fail("Rank(ad %d) = %v, oracle %v", j, got, want)
			}
		case 20:
			// Numbered attributes, one time in four enough of them to
			// take the ad past scanMax.
			n := s.next() % 80
			if s.next()%4 != 0 {
				n %= 8
			}
			for ; n >= 0; n-- {
				a.SetInt(numbered[n], int64(n))
				r.Set(numbered[n], Lit(Int(int64(n))))
			}
		case 21:
			ads[i], ref[i] = New(), newOracleAd()
		case 22:
			// Through the wire and back.
			back, gerr := scanAd(a.AppendXML(nil))
			want, werr := oracleUnmarshal(r.AppendXML(nil))
			if (gerr == nil) != (werr == nil) {
				return fail("DecodeXML: %v, oracle %v", gerr, werr)
			}
			if gerr == nil {
				ads[i], ref[i] = back, want
			}
		case 23:
			if got, want := a.Names(), r.Names(); !reflect.DeepEqual(got, want) {
				return fail("Names = %q, oracle %q", got, want)
			}
		case 24:
			// Expression, literal, expression again, on one name.
			e, v, e2 := s.expr(2), s.value(), s.expr(2)
			a.Set(name, e).SetValue(name, v).Set(name, e2)
			r.Set(name, e).Set(name, Lit(v)).Set(name, e2)
		case 25:
			// Delete an attribute bound to an expression: the first such,
			// or name once it is bound to one.
			victim := name
			if k := slices.IndexFunc(a.attrs, func(at attr) bool { return at.val.kind == kindExpr }); k >= 0 {
				victim = a.attrs[k].name
			} else {
				e := s.expr(2)
				a.Set(name, e)
				r.Set(name, e)
			}
			if got, want := a.Delete(victim), r.Delete(victim); got != want {
				return fail("Delete(%q) = %v, oracle %v", victim, got, want)
			}
		case 26:
			// Merge an ad with expressions into one of literals only.
			e := s.expr(2)
			a.Set(name, e)
			r.Set(name, e)
			other, str := pick(s, scriptNames), pick(s, scriptStrings)
			lits, rlits := New().SetInt(other, 1).SetValue("L", Strings(str)), newOracleAd().Set(other, Lit(Int(1))).SetStrings("L", str)
			ads[j], ref[j] = lits.Merge(a), rlits.Merge(r)
		case 27:
			// With copies of an ad holding a list and an expression,
			// then of the copies, then more edits of the original: each
			// copy keeps what it saw.
			e, vs := s.expr(2), scriptStrings[:1+s.next()%3]
			a.SetValue("L", Strings(vs...)).Set(name, e)
			r.SetStrings("L", vs...).Set(name, e)
			v1, v2, other := s.value(), s.value(), pick(s, scriptNames)
			w1, rw1 := a.With(name, v1), withOracle(r, name, v1)
			w2, rw2 := w1.With(other, v2), withOracle(rw1, other, v2)
			w3, rw3 := a.Clone().Freeze().With("L", v2), withOracle(r, "L", v2)
			for n := 0; n < 4; n++ {
				e := s.expr(2)
				a.Set(numbered[n], e).Set(name, e)
				r.Set(numbered[n], e).Set(name, e)
			}
			a.Delete(name)
			r.Delete(name)
			for k, c := range []struct {
				ad  *Ad
				ref *oracleAd
			}{{a, r}, {w1, rw1}, {w2, rw2}, {w3, rw3}} {
				if err := agree(c.ad, c.ref); err != nil {
					return fail("copy %d: %v", k, err)
				}
			}
			ads[j], ref[j] = w2.Clone(), rw2
		}
		for _, k := range []int{i, j} {
			if ads[k].Len() != ref[k].Len() || (ads[k].Len() <= 24 || step%8 == 0) && ads[k].String() != ref[k].String() {
				return fmt.Errorf("step %d (op %d on ad %d, ad %d, name %q): ad %d differs\n new: %s\n old: %s", step, op, i, j, name, k, ads[k], ref[k])
			}
		}
	}
	for k := range ads {
		if got, want := ads[k].Names(), ref[k].Names(); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("at the end ad %d: Names = %q, oracle %q", k, got, want)
		}
		if got, want := ads[k].AppendXML(nil), ref[k].AppendXML(nil); !bytes.Equal(got, want) {
			return fmt.Errorf("at the end ad %d: AppendXML\n new: %s\n old: %s", k, got, want)
		}
		if indexed := ads[k].index != nil; indexed != (ads[k].Len() > scanMax) {
			return fmt.Errorf("at the end ad %d (%d attributes): index present %v", k, ads[k].Len(), indexed)
		}
	}
	return nil
}

// TestAdMatchesOracle drives the Ad and the map-backed Ad it replaced
// with the same random programs.
func TestAdMatchesOracle(t *testing.T) {
	scripts := 100_000
	if testing.Short() {
		scripts = 10_000
	}
	rng := rand.New(rand.NewSource(20))
	for n := 0; n < scripts; n++ {
		prog := make([]byte, 8+rng.Intn(120))
		rng.Read(prog)
		if err := runScript(prog); err != nil {
			t.Fatalf("script %d %x: %v", n, prog, err)
		}
	}
}

// FuzzAdOps is TestAdMatchesOracle with the fuzzer choosing the program.
func FuzzAdOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 2, 2, 0, 0, 2, 0, 2, 1, 0, 0, 0, 13})                                         // a = b; b = A; Eval a
	f.Add([]byte{0, 1, 10, 2, 7, 0, 1, 8, 4, 1, 0, 1, 0, 20, 79, 0, 0, 1, 10, 8, 0, 1, 0, 11, 1, 0, 9, 9}) // Kelvin sign = 7; k = "a"; 80 more; Delete; Clone; Delete K
	f.Fuzz(func(t *testing.T, prog []byte) {
		if err := runScript(prog); err != nil {
			t.Fatal(err)
		}
	})
}

func TestCyclicReferenceKeepsItsText(t *testing.T) {
	ad := MustParse(`[ a = b; b = A; c = c; d = other.d ]`)
	for name, want := range map[string]string{"a": `cyclic reference to "A"`, "B": `cyclic reference to "b"`, "c": `cyclic reference to "c"`} {
		if got := ad.Eval(name); !got.IsError() || got.s != want {
			t.Errorf("Eval(%q) = %#v, want error %q", name, got, want)
		}
	}
	// Across two ads the scopes on the stack are relative to the ad
	// being evaluated, so a cycle shows one turn later than it starts —
	// and a literal reached as "my.x" while another ad's "my.x" is being
	// evaluated is taken for a cycle. Both are as they were.
	if got, want := ad.EvalAgainst("d", ad.Clone()), `cyclic reference to "d"`; !got.IsError() || got.s != want {
		t.Errorf("EvalAgainst = %#v, want error %q", got, want)
	}
	if got := MustParse(`[ x = other.x + 1 ]`).EvalAgainst("x", MustParse(`[ x = 5 ]`)); !got.Equal(Int(6)) {
		t.Errorf("my.x = other.x + 1 evaluates to %#v", got)
	}
	a, b := MustParse(`[ x = other.y ]`), MustParse(`[ y = my.X; x = 5 ]`)
	ra, rb := newOracleAd().Set("x", MustParseExpr("other.y")), newOracleAd().Set("y", MustParseExpr("my.X")).Set("x", Lit(Int(5)))
	if got, want := a.EvalAgainst("x", b), ra.EvalAgainst("x", rb); !sameValue(got, want) || got.s != `cyclic reference to "X"` {
		t.Errorf("EvalAgainst = %#v, oracle %#v", got, want)
	}
}

// TestIndexedAdFollowsOracle takes one ad past scanMax, copies it, and
// brings it back under: the index must appear, stay the copy's own, and
// go, with the ad answering as the map-backed one does throughout.
func TestIndexedAdFollowsOracle(t *testing.T) {
	a, r := new(Ad), newOracleAd()
	same := func(when string, a *Ad, r *oracleAd) {
		t.Helper()
		if a.String() != r.String() || (a.index != nil) != (a.Len() > scanMax) {
			t.Fatalf("%s (%d attributes, index %v):\n new: %s\n old: %s", when, a.Len(), a.index != nil, a, r)
		}
	}
	for n, name := range numbered {
		a.SetInt(name, int64(n))
		r.Set(name, Lit(Int(int64(n))))
		same("building", a, r)
	}
	c, cr := a.Clone(), r.Clone()
	c.SetString("OnlyInCopy", "x").SetInt("n7", -7)
	cr.Set("OnlyInCopy", Lit(Str("x"))).Set("n7", Lit(Int(-7)))
	a.SetBool("OnlyInOriginal", true)
	r.Set("OnlyInOriginal", Lit(Bool(true)))
	same("original after its copy changed", a, r)
	same("copy after the original changed", c, cr)
	if a.find("onlyincopy") >= 0 || c.find("onlyinoriginal") >= 0 || a.GetInt("N7", 0) != 7 || c.GetInt("N7", 0) != -7 {
		t.Fatalf("ad and copy share attributes:\n%s\n%s", a, c)
	}
	for n, name := range numbered {
		if got, want := a.Delete(strings.ToLower(name)), r.Delete(strings.ToLower(name)); got != want {
			t.Fatalf("Delete(%q) = %v, oracle %v", name, got, want)
		}
		same("deleting", a, r)
		if n%3 == 0 {
			a.SetInt("Again"+name, 1)
			r.Set("Again"+name, Lit(Int(1)))
			same("adding back", a, r)
		}
	}
	same("copy at the end", c, cr)
}

// TestFoldMatchesToLower holds the in-place comparisons to the rule they
// replace: strings.ToLower on both sides, then compare.
func TestFoldMatchesToLower(t *testing.T) {
	alphabet := []string{"a", "A", "k", "K", "\u212a", "i", "I", "İ", "ı", "s", "S", "ſ", "é", "É", "z", "Z", "@", "`", "[", "{", "0", "_", "\xff", "\xc3", "\x7f"}
	rng := rand.New(rand.NewSource(20))
	word := func() string {
		var b strings.Builder
		for n := rng.Intn(4); n > 0; n-- {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		return b.String()
	}
	pairs := 2_000_000
	if testing.Short() {
		pairs = 200_000
	}
	for n := 0; n < pairs; n++ {
		a, b := word(), word()
		if rng.Intn(4) == 0 {
			b = a[:rng.Intn(len(a)+1)] + word() // a shared prefix, so not every pair differs at once
		}
		la, lb := strings.ToLower(a), strings.ToLower(b)
		if got, want := foldCompare(a, b), strings.Compare(la, lb); got != want {
			t.Fatalf("foldCompare(%q, %q) = %d, want %d", a, b, got, want)
		}
		if got, want := New().SetInt(a, 1).find(b) == 0, la == lb; got != want {
			t.Fatalf("an ad holding %q finds %q: %v, want %v", a, b, got, want)
		}
	}
}

func TestStringCompareOrderUnchanged(t *testing.T) {
	words := []string{"", "a", "A", "ab", "AB", "Ab", "abc", "ABD", "b", "B", "Z", "a0", "a_", "a@", "a`", "[", "{",
		"é", "É", "e", "\u212a", "k", "K", "kb", "\u212ab", "İ", "i", "ſ", "s", "straße", "STRASSE", "\xff", "\xfe", "a\xff"}
	for _, x := range words {
		for _, y := range words {
			c := strings.Compare(strings.ToLower(x), strings.ToLower(y))
			for op, want := range map[string]bool{"==": c == 0, "!=": c != 0, "<": c < 0, "<=": c <= 0, ">": c > 0, ">=": c >= 0} {
				got := New().EvalExpr(binaryExpr{op: op, x: Lit(Str(x)), y: Lit(Str(y))}, nil)
				if b, ok := got.BoolVal(); !ok || b != want {
					t.Errorf("%q %s %q = %v, want %v", x, op, y, got, want)
				}
			}
		}
	}
}

// TestZeroAdIsUsable: an Ad needs no constructor, and the operations
// that took a nil ad still do.
func TestZeroAdIsUsable(t *testing.T) {
	var a Ad
	a.Set("X", Attr("Y")).SetInt("Y", 2).SetString("S", "s")
	a.Merge(New().SetBool("B", true)).Merge(new(Ad))
	if got, want := a.String(), `[ X = Y; Y = 2; S = "s"; B = true ]`; got != want {
		t.Errorf("String = %s, want %s", got, want)
	}
	if got := a.GetInt("x", 0); got != 2 {
		t.Errorf("GetInt(x) = %d", got)
	}
	c := a.Clone()
	if !a.Delete("y") || a.Delete("y") || c.Len() != 4 || a.Len() != 3 {
		t.Errorf("after Delete: %s, clone %s", &a, c)
	}
	var zero Ad
	if _, ok := zero.Lookup("X"); ok || zero.Len() != 0 || zero.Names() != nil || zero.String() != "[  ]" || zero.Delete("X") {
		t.Errorf("zero ad is not empty: %s", &zero)
	}
	if c := zero.Clone(); c.Len() != 0 || !reflect.DeepEqual(c, New()) {
		t.Errorf("clone of the zero ad: %#v", c)
	}
	var none *Ad
	if _, ok := none.Lookup("X"); ok || none.Len() != 0 {
		t.Error("a nil ad holds something")
	}
	if !Match(&zero, New().Set("Requirements", MustParseExpr("isUndefined(other.X)"))) {
		t.Error("zero ad does not match")
	}
}

// TestAdAllocations pins what the slice representation is for.
func TestAdAllocations(t *testing.T) {
	if v, at := unsafe.Sizeof(Value{}), unsafe.Sizeof(attr{}); v > 40 || at > 56 {
		t.Errorf("a Value is %d bytes and an attribute %d, want at most 40 and 56", v, at)
	}
	ad := resourceAd() // bench_test.go: the ten attributes of Plant.ResourceAd
	for _, c := range []struct {
		what string
		max  float64
		fn   func()
	}{
		{"build of ten attributes", 4, func() { resourceAd() }}, // the Ad, its attributes, the list; one more under -race
		{"Clone", 2, func() { ad.Clone() }},
		{"GetInt of a literal", 0, func() { ad.GetInt("freememorymb", 0) }},
		{"GetString of a literal", 0, func() { ad.GetString("ARCH", "") }},
		{"GetBool of a literal", 0, func() { ad.GetBool("Draining", true) }},
		{"Eval of a literal", 0, func() { ad.Eval("GoldenImages") }},
		{"Lookup miss", 0, func() { ad.Lookup("NoSuchAttribute") }},
		{"Set over an attribute", 0, func() { ad.SetInt("vms", 4) }},
		{"Match without Requirements", 0, func() { Match(ad, ad) }},
	} {
		if got := testing.AllocsPerRun(100, c.fn); got > c.max {
			t.Errorf("%s: %v allocations, want at most %v", c.what, got, c.max)
		}
	}
}

// TestLargeAdIsNotQuadratic: a frame of the protocol's maximum size can
// carry some 10^5 attributes, and decoding it then reading each must
// stay linear. A scan per lookup takes tens of seconds here.
func TestLargeAdIsNotQuadratic(t *testing.T) {
	const n = 100_000
	doc := []byte("<classad>")
	for i := 0; i < n; i++ {
		doc = fmt.Appendf(doc, `<attr name="Attr%d">%d</attr>`, i, i)
	}
	doc = append(doc, "</classad>"...)
	if len(doc) > 4<<20 {
		t.Fatalf("document is %d bytes, more than a frame holds", len(doc))
	}
	start := time.Now()
	s := xmlwire.NewScanner(doc)
	if err := s.Open("classad"); err != nil {
		t.Fatal(err)
	}
	var ad Ad
	if err := ad.DecodeXML(s); err != nil {
		t.Fatal(err)
	}
	if ad.Len() != n {
		t.Fatalf("decoded %d attributes, want %d", ad.Len(), n)
	}
	for i := 0; i < n; i++ {
		if got := ad.GetInt(fmt.Sprint("ATTR", i), -1); got != int64(i) {
			t.Fatalf("ATTR%d = %d", i, got)
		}
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("decoding and reading %d attributes took %v", n, took)
	}
}
