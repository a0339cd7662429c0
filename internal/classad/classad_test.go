package classad

import (
	"encoding/xml"
	"strings"
	"testing"
	"testing/quick"
)

// evalStr parses and evaluates an expression with no ad context.
func evalStr(t *testing.T, src string) Value {
	t.Helper()
	e, err := ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return New().EvalExpr(e, nil)
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		src  string
		want Value
	}{
		{"1 + 2", Int(3)},
		{"2 * 3 + 4", Int(10)},
		{"2 + 3 * 4", Int(14)},
		{"(2 + 3) * 4", Int(20)},
		{"10 / 4", Int(2)},
		{"10 % 4", Int(2)},
		{"10.0 / 4", Real(2.5)},
		{"1 + 2.5", Real(3.5)},
		{"-3 + 1", Int(-2)},
		{"- 3 * 2", Int(-6)},
		{"\"foo\" + \"bar\"", Str("foobar")},
		{"2e3", Real(2000)},
		{"1.5e-1", Real(0.15)},
	}
	for _, c := range cases {
		if got := evalStr(t, c.src); !got.Equal(c.want) {
			t.Errorf("%s = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestDivideByZeroIsError(t *testing.T) {
	for _, src := range []string{"1/0", "1%0", "1.0/0.0"} {
		if got := evalStr(t, src); !got.IsError() {
			t.Errorf("%s = %v, want error", src, got)
		}
	}
}

func TestComparisons(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"1 < 2", true},
		{"2 <= 2", true},
		{"3 > 2.5", true},
		{"2 >= 3", false},
		{"2 == 2.0", true},
		{"2 != 2", false},
		{"\"abc\" == \"ABC\"", true}, // case-insensitive
		{"\"abc\" < \"abd\"", true},
		{"true == true", true},
		{"true != false", true},
	}
	for _, c := range cases {
		if got := evalStr(t, c.src); !got.Equal(Bool(c.want)) {
			t.Errorf("%s = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestThreeValuedLogic(t *testing.T) {
	cases := []struct {
		src  string
		want Value
	}{
		{"false && undefined", Bool(false)},
		{"undefined && false", Bool(false)},
		{"true && undefined", Undefined()},
		{"true || undefined", Bool(true)},
		{"undefined || true", Bool(true)},
		{"false || undefined", Undefined()},
		{"!undefined", Undefined()},
		{"undefined + 1", Undefined()},
		{"undefined == undefined", Undefined()},
		{"undefined =?= undefined", Bool(true)},
		{"undefined =!= undefined", Bool(false)},
		{"1 =?= 1.0", Bool(false)}, // is-identical is strict on type
		{"1 == 1.0", Bool(true)},
		{"error && false", Errorf("")},
		{"true && error", Errorf("")},
	}
	for _, c := range cases {
		got := evalStr(t, c.src)
		if got.Kind() != c.want.Kind() {
			t.Errorf("%s = %v (%v), want kind %v", c.src, got, got.Kind(), c.want.Kind())
			continue
		}
		if c.want.Kind() == KindBool && !got.Equal(c.want) {
			t.Errorf("%s = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestConditionalExpr(t *testing.T) {
	if got := evalStr(t, "1 < 2 ? \"yes\" : \"no\""); !got.Equal(Str("yes")) {
		t.Errorf("got %v", got)
	}
	if got := evalStr(t, "undefined ? 1 : 2"); !got.IsUndefined() {
		t.Errorf("undefined condition → %v, want undefined", got)
	}
}

func TestBuiltins(t *testing.T) {
	cases := []struct {
		src  string
		want Value
	}{
		{`member("b", {"a", "b", "c"})`, Bool(true)},
		{`member("B", {"a", "b"})`, Bool(true)}, // case-insensitive
		{`member(2, {1, 2, 3})`, Bool(true)},
		{`member(4, {1, 2, 3})`, Bool(false)},
		{`size({1,2,3})`, Int(3)},
		{`size("hello")`, Int(5)},
		{`strcat("a", "b", "c")`, Str("abc")},
		{`toLower("ABC")`, Str("abc")},
		{`toUpper("abc")`, Str("ABC")},
		{`int(3.7)`, Int(3)},
		{`real(3)`, Real(3)},
		{`floor(3.7)`, Int(3)},
		{`ceiling(3.2)`, Int(4)},
		{`min(3, 1, 2)`, Int(1)},
		{`max({3, 1, 2})`, Int(3)},
		{`min(1, 2.5)`, Real(1)},
		{`ifThenElse(true, 1, 2)`, Int(1)},
		{`ifThenElse(false, 1, 2)`, Int(2)},
		{`isUndefined(undefined)`, Bool(true)},
		{`isUndefined(1)`, Bool(false)},
		{`isError(1/0)`, Bool(true)},
	}
	for _, c := range cases {
		if got := evalStr(t, c.src); !got.Equal(c.want) {
			t.Errorf("%s = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestUnknownFunctionIsParseError(t *testing.T) {
	if _, err := ParseExpr("bogus(1)"); err == nil {
		t.Error("expected parse error for unknown function")
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"1 +", "(1", "{1, 2", `"unterminated`, "a & b", "a | b",
		"1 ? 2", "foo.bar", "=?", "@",
	} {
		if _, err := ParseExpr(src); err == nil {
			t.Errorf("ParseExpr(%q) succeeded, want error", src)
		}
	}
}

func TestAttributeResolution(t *testing.T) {
	ad := MustParse(`[ Memory = 64; Doubled = Memory * 2; Name = "vm" ]`)
	if got := ad.Eval("Doubled"); !got.Equal(Int(128)) {
		t.Errorf("Doubled = %v", got)
	}
	// Case-insensitive lookup.
	if got := ad.Eval("mEmOrY"); !got.Equal(Int(64)) {
		t.Errorf("case-insensitive lookup = %v", got)
	}
	if got := ad.Eval("Missing"); !got.IsUndefined() {
		t.Errorf("missing attr = %v, want undefined", got)
	}
}

func TestCyclicReferenceIsError(t *testing.T) {
	ad := MustParse(`[ A = B; B = A ]`)
	if got := ad.Eval("A"); !got.IsError() {
		t.Errorf("cyclic eval = %v, want error", got)
	}
	self := MustParse(`[ X = X + 1 ]`)
	if got := self.Eval("X"); !got.IsError() {
		t.Errorf("self-recursive eval = %v, want error", got)
	}
}

func TestScopedReferences(t *testing.T) {
	vm := MustParse(`[ Memory = 64; Requirements = TARGET.FreeMemory >= MY.Memory ]`)
	host := MustParse(`[ FreeMemory = 128 ]`)
	if got := vm.EvalAgainst("Requirements", host); !got.IsTrue() {
		t.Errorf("Requirements = %v, want true", got)
	}
	small := MustParse(`[ FreeMemory = 32 ]`)
	if got := vm.EvalAgainst("Requirements", small); got.IsTrue() {
		t.Errorf("Requirements against small host = %v, want false", got)
	}
	// self/other aliases.
	alt := MustParse(`[ Memory = 64; Requirements = other.FreeMemory >= self.Memory ]`)
	if got := alt.EvalAgainst("Requirements", host); !got.IsTrue() {
		t.Errorf("alias Requirements = %v", got)
	}
}

func TestUnscopedFallbackToTarget(t *testing.T) {
	req := MustParse(`[ Requirements = FreeMemory > 100 ]`)
	host := MustParse(`[ FreeMemory = 128 ]`)
	if got := req.EvalAgainst("Requirements", host); !got.IsTrue() {
		t.Errorf("fallback resolution = %v, want true", got)
	}
}

func TestSymmetricMatch(t *testing.T) {
	job := MustParse(`[ Memory = 64; OS = "linux"; Requirements = TARGET.FreeMemory >= MY.Memory && TARGET.OS == MY.OS ]`)
	machine := MustParse(`[ FreeMemory = 256; OS = "Linux"; MaxJobs = 4; RunningJobs = 1; Requirements = MY.RunningJobs < MY.MaxJobs ]`)
	if !Match(job, machine) {
		t.Error("job/machine should match")
	}
	busy := MustParse(`[ FreeMemory = 256; OS = "Linux"; MaxJobs = 4; RunningJobs = 4; Requirements = MY.RunningJobs < MY.MaxJobs ]`)
	if Match(job, busy) {
		t.Error("busy machine should not match")
	}
}

func TestMatchUndefinedRequirementsFails(t *testing.T) {
	a := MustParse(`[ Requirements = TARGET.Nonexistent > 1 ]`)
	b := MustParse(`[ X = 1 ]`)
	if Match(a, b) {
		t.Error("undefined Requirements must not match")
	}
}

func TestRank(t *testing.T) {
	a := MustParse(`[ Rank = TARGET.Speed * 2 ]`)
	b := MustParse(`[ Speed = 10 ]`)
	if got := Rank(a, b); got != 20 {
		t.Errorf("Rank = %v, want 20", got)
	}
	if got := Rank(b, a); got != 0 {
		t.Errorf("missing Rank = %v, want 0", got)
	}
}

func TestAdSettersAndGetters(t *testing.T) {
	ad := New().
		SetString("Name", "vm1").
		SetInt("Memory", 64).
		SetReal("Load", 0.5).
		SetBool("Active", true).
		SetStrings("Tags", "a", "b")
	if ad.GetString("Name", "") != "vm1" {
		t.Error("GetString")
	}
	if ad.GetInt("Memory", 0) != 64 {
		t.Error("GetInt")
	}
	if ad.GetReal("Load", 0) != 0.5 {
		t.Error("GetReal")
	}
	if !ad.GetBool("Active", false) {
		t.Error("GetBool")
	}
	tags := ad.GetStrings("Tags")
	if len(tags) != 2 || tags[0] != "a" || tags[1] != "b" {
		t.Errorf("GetStrings = %v", tags)
	}
	if ad.GetString("Missing", "dflt") != "dflt" {
		t.Error("default not returned")
	}
	if ad.GetInt("Name", -1) != -1 {
		t.Error("type-mismatch default not returned")
	}
}

func TestSetOverwritesKeepingOrder(t *testing.T) {
	ad := New().SetInt("A", 1).SetInt("B", 2)
	ad.SetInt("a", 10)
	names := ad.Names()
	if len(names) != 2 || names[0] != "A" {
		t.Errorf("names = %v", names)
	}
	if ad.GetInt("A", 0) != 10 {
		t.Error("overwrite failed")
	}
}

func TestDelete(t *testing.T) {
	ad := New().SetInt("A", 1).SetInt("B", 2)
	if !ad.Delete("a") {
		t.Error("Delete reported false")
	}
	if ad.Len() != 1 || ad.Names()[0] != "B" {
		t.Errorf("after delete: %v", ad.Names())
	}
	if ad.Delete("a") {
		t.Error("double delete reported true")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	a := New().SetInt("X", 1)
	b := a.Clone()
	b.SetInt("X", 2)
	b.SetInt("Y", 3)
	if a.GetInt("X", 0) != 1 || a.Len() != 1 {
		t.Error("clone mutated original")
	}
}

func TestMergeOverwrites(t *testing.T) {
	a := New().SetInt("X", 1).SetInt("Y", 2)
	b := New().SetInt("Y", 20).SetInt("Z", 30)
	a.Merge(b)
	if a.GetInt("Y", 0) != 20 || a.GetInt("Z", 0) != 30 || a.GetInt("X", 0) != 1 {
		t.Errorf("merge result: %s", a)
	}
}

func TestAdStringRoundTrip(t *testing.T) {
	src := `[ Name = "vm-1"; Memory = 64; Req = (TARGET.FreeMemory >= MY.Memory); Tags = {"x", "y"}; Score = (Memory * 2) ]`
	ad := MustParse(src)
	back, err := Parse(ad.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", ad.String(), err)
	}
	if back.Len() != ad.Len() {
		t.Fatalf("round trip lost attrs: %s vs %s", back, ad)
	}
	if got := back.Eval("Score"); !got.Equal(Int(128)) {
		t.Errorf("Score after round trip = %v", got)
	}
}

// FuzzParse: Parse never panics, and whatever it accepts prints to text
// that parses back to an ad printing the same.
func FuzzParse(f *testing.F) {
	f.Add(`[ Name = "vm-1"; Memory = 64; Req = (TARGET.FreeMemory >= MY.Memory); Tags = {"x", "y"}; Score = (Memory * 2) ]`)
	f.Add(`[a = b; b = A; A = -1.5e-7 // comment
	; s = "q\"uo\\te\n\t\r" ; c = x ? self.y : other.z; u = undefined; e = ERROR; l = {}; f = ifThenElse(!true, 1 % 2, 3 / 4)]`)
	f.Add(`[]`)
	f.Add("[ s = \"\x00\x7f\xff\u00e9\" ; \xe9 = 1 =?= 2 || 3 =!= 4 && 5 <= 6 ]")
	f.Fuzz(func(t *testing.T, src string) {
		ad, err := Parse(src)
		if err != nil {
			return
		}
		text := ad.String()
		back, err := Parse(text)
		if err != nil {
			t.Fatalf("%q parses, but what it prints does not: %q: %v", src, text, err)
		}
		if again := back.String(); again != text {
			t.Fatalf("%q prints %q, which parses and prints %q", src, text, again)
		}
	})
}

func TestXMLRoundTrip(t *testing.T) {
	ad := New().
		SetString("VMID", "vm-42").
		SetInt("Memory", 256).
		SetStrings("Actions", "install-os", "create-user")
	ad.SetExprString("Requirements", "TARGET.Disk >= 2048")

	blob, err := xml.Marshal(ad)
	if err != nil {
		t.Fatal(err)
	}
	got := New()
	if err := xml.Unmarshal(blob, got); err != nil {
		t.Fatalf("unmarshal %s: %v", blob, err)
	}
	if got.GetString("VMID", "") != "vm-42" || got.GetInt("Memory", 0) != 256 {
		t.Errorf("round trip: %s", got)
	}
	if ex, ok := got.Lookup("Requirements"); !ok || !strings.Contains(ex.String(), ">=") {
		t.Errorf("Requirements lost: %v", ex)
	}
	if tags := got.GetStrings("Actions"); len(tags) != 2 {
		t.Errorf("Actions = %v", tags)
	}
}

func TestXMLSpecialCharsInStrings(t *testing.T) {
	ad := New().SetString("Weird", `a<b&"c"\n`)
	blob, err := xml.Marshal(ad)
	if err != nil {
		t.Fatal(err)
	}
	got := New()
	if err := xml.Unmarshal(blob, got); err != nil {
		t.Fatal(err)
	}
	if got.GetString("Weird", "") != `a<b&"c"\n` {
		t.Errorf("got %q", got.GetString("Weird", ""))
	}
}

func TestExprStringParseEvalAgreement(t *testing.T) {
	// Property: printing a parsed expression and re-parsing yields the
	// same value. Drive with a grammar of random arithmetic exprs.
	cfg := &quick.Config{MaxCount: 200}
	f := func(a, b int16, c uint8) bool {
		src := ""
		switch c % 5 {
		case 0:
			src = "(%d + %d)"
		case 1:
			src = "(%d - %d)"
		case 2:
			src = "(%d * %d)"
		case 3:
			src = "(%d < %d)"
		default:
			src = "(%d >= %d)"
		}
		src = strings.ReplaceAll(src, "%d", "")
		_ = src
		return true
	}
	_ = f
	check := func(a, b int16, op uint8) bool {
		ops := []string{"+", "-", "*", "<", ">=", "==", "!="}
		src := "(" + Int(int64(a)).String() + " " + ops[int(op)%len(ops)] + " " + Int(int64(b)).String() + ")"
		e1, err := ParseExpr(src)
		if err != nil {
			return false
		}
		e2, err := ParseExpr(e1.String())
		if err != nil {
			return false
		}
		v1 := New().EvalExpr(e1, nil)
		v2 := New().EvalExpr(e2, nil)
		return v1.Equal(v2)
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Error(err)
	}
}

func TestValueStringForms(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Undefined(), "undefined"},
		{Bool(true), "true"},
		{Int(-3), "-3"},
		{Real(2.5), "2.5"},
		{Str("a\"b"), `"a\"b"`},
		{List(Int(1), Str("x")), `{1, "x"}`},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	ad, err := Parse("[ // a comment\n  A = 1; // trailing\n  B = 2 ]")
	if err != nil {
		t.Fatal(err)
	}
	if ad.GetInt("A", 0) != 1 || ad.GetInt("B", 0) != 2 {
		t.Errorf("parsed %s", ad)
	}
}

// Property: the parser never panics and, when it accepts input,
// printing and re-parsing yields an expression that evaluates to an
// equal value — over adversarial byte soup built from language tokens.
func TestParserRobustnessProperty(t *testing.T) {
	fragments := []string{
		"(", ")", "[", "]", "{", "}", "&&", "||", "==", "!=", "=?=", "=!=",
		"<", "<=", ">", ">=", "+", "-", "*", "/", "%", "?", ":", ";", ",",
		"1", "2.5", `"str"`, "true", "false", "undefined", "error",
		"Memory", "TARGET.x", "MY.y", "member", "size", " ", "\n", "//c\n",
		"\"", "\\", "=", ".", "1e9", "0x", "@",
	}
	check := func(picks []uint8) bool {
		var b strings.Builder
		for _, p := range picks {
			b.WriteString(fragments[int(p)%len(fragments)])
		}
		src := b.String()
		e1, err := ParseExpr(src)
		if err != nil {
			return true // rejection is fine; panics are not
		}
		e2, err := ParseExpr(e1.String())
		if err != nil {
			t.Logf("accepted %q but rejected its own print %q: %v", src, e1.String(), err)
			return false
		}
		v1 := New().EvalExpr(e1, nil)
		v2 := New().EvalExpr(e2, nil)
		if v1.Kind() != v2.Kind() {
			return false
		}
		if v1.Kind() != KindError && !v1.Equal(v2) {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: Ad.Parse never panics on token soup either.
func TestAdParserRobustnessProperty(t *testing.T) {
	check := func(s string) bool {
		Parse(s) // must not panic
		Parse("[" + s + "]")
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestRegexpBuiltin(t *testing.T) {
	cases := []struct {
		src  string
		want Value
	}{
		{`regexp("^vm-", "vm-shop-1")`, Bool(true)},
		{`regexp("^vm-", "shop-1")`, Bool(false)},
		{`regexp("\\.edu$", "ufl.edu")`, Bool(true)},
	}
	for _, c := range cases {
		if got := evalStr(t, c.src); !got.Equal(c.want) {
			t.Errorf("%s = %v, want %v", c.src, got, c.want)
		}
	}
	if got := evalStr(t, `regexp("(", "x")`); !got.IsError() {
		t.Errorf("bad pattern = %v, want error", got)
	}
	if got := evalStr(t, `regexp(1, "x")`); !got.IsError() {
		t.Errorf("non-string pattern = %v, want error", got)
	}
}
