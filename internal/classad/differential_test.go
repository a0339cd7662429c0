package classad

import (
	"bytes"
	"fmt"
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
	return a.kind == b.kind && a.n == b.n && a.s == b.s && slices.EqualFunc(a.l, b.l, sameValue)
}

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
		op := s.next() % 24
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
			a.SetStrings(name, vs...)
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
			if gok != wok || !reflect.DeepEqual(got, want) {
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
	if v, at := unsafe.Sizeof(Value{}), unsafe.Sizeof(attr{}); v > 56 || at > 88 {
		t.Errorf("a Value is %d bytes and an attribute %d, want at most 56 and 88", v, at)
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
