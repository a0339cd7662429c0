package classad

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"vmplants/internal/xmlwire"
)

// TestLiteralMatchesParser holds ParseExpr's literal fast path to the
// lexer and parser: whatever it accepts they accept, as the same
// expression; and it accepts the plain forms it exists for.
func TestLiteralMatchesParser(t *testing.T) {
	accepts := []string{
		`""`, `"a"`, `"hello world"`, `"tab	and é and ` + "\xff" + `"`, "\"line\nbreak\"",
		"0", "7", "007", "64", "9223372036854775807",
		"0.5", "3.14159", "10.0", "00.50",
		"true", "false",
	}
	declines := []string{
		``, ` `, `"`, `"a`, `a"`, `"a\"b"`, `"a\\b"`, `"a\n"`, `"a"b"`, `"a" `, ` "a"`, `"a"+"b"`,
		"-1", "+1", " 1", "1 ", "1e3", "1E3", "1.5e-3", "1.", ".5", "1..2", "1.2.3", "1.x", "0x10", "1_000",
		"9223372036854775808", "99999999999999999999", "1" + strings.Repeat("0", 400) + ".0",
		"TRUE", "True", "FALSE", "truex", "true ", "undefined", "error", "x", "MY.x", "{1, 2}", "1 + 2", "!true",
	}
	for _, src := range append(append([]string(nil), accepts...), declines...) {
		want, werr := parseExpr(src)
		for _, form := range []string{"string", "[]byte"} {
			got, ok := literal(src)
			if form == "[]byte" {
				got, ok = literal([]byte(src))
			}
			if !ok {
				continue
			}
			if werr != nil {
				t.Errorf("literal(%s %q) accepted what the parser rejects: %v", form, src, werr)
			} else if !reflect.DeepEqual(Expr(litExpr{got}), want) {
				t.Errorf("literal(%s %q) = %#v, parser %#v", form, src, got, want)
			}
		}
	}
	for _, src := range accepts {
		if _, ok := literal(src); !ok {
			t.Errorf("literal(%q) declined", src)
		}
	}
	for _, src := range declines {
		if _, ok := literal(src); ok {
			t.Errorf("literal(%q) accepted; only the parser should read it", src)
		}
	}
	// Every literal value renders to text that reads back as itself,
	// through whichever path takes it.
	for _, v := range []Value{Str("plain"), Str(`q"uo\te`), Str("nl\n"), Int(-5), Int(12), Real(2.5), Real(1e21), Real(-0.25), Bool(true), Bool(false)} {
		e, err := ParseExpr(v.String())
		if err != nil {
			t.Errorf("ParseExpr(%s): %v", v, err)
			continue
		}
		if got := new(Ad).EvalExpr(e, nil); !got.Equal(v) {
			t.Errorf("ParseExpr(%s) evaluates to %s", v, got)
		}
	}
}

// TestListFold: a list whose elements are all literals is one literal
// list value — whichever way it was read, the parser or the wire's list
// fast path — and renders as the list expression did; a list holding
// anything else stays an expression.
func TestListFold(t *testing.T) {
	for _, tc := range []struct {
		src, text string
		folded    bool
	}{
		{`{}`, `{}`, true},
		{`{ }`, `{}`, true},
		{`{"a", "b"}`, `{"a", "b"}`, true},
		{"{ \"a\" ,\n\t\"b\"\r}", `{"a", "b"}`, true},
		{`{{1, "a"}, {}, 2.5, true}`, `{{1, "a"}, {}, 2.5, true}`, true},
		{`{"a\"b", "é"}`, `{"a\"b", "é"}`, true},
		{`{undefined, error}`, `{undefined, error}`, true},
		{`{x, "a"}`, `{x, "a"}`, false},
		{`{"a", {b}}`, `{"a", {b}}`, false},
		{`{1 + 2}`, `{(1 + 2)}`, false},
	} {
		e, err := ParseExpr(tc.src)
		if err != nil {
			t.Errorf("ParseExpr(%q): %v", tc.src, err)
			continue
		}
		if _, folded := e.(litExpr); folded != tc.folded {
			t.Errorf("ParseExpr(%q) = %#v, folded %v, want %v", tc.src, e, folded, tc.folded)
		}
		if got := e.String(); got != tc.text {
			t.Errorf("ParseExpr(%q).String() = %q, want %q", tc.src, got, tc.text)
		}
		ad := New().Set("L", e)
		doc := ad.AppendXML(nil)
		if want, err := xml.Marshal(ad); err != nil || string(doc) != string(want) {
			t.Errorf("%q: AppendXML %q, encoding/xml %q (%v)", tc.src, doc, want, err)
		}
		var want Ad
		if err := xml.Unmarshal(doc, &want); err != nil {
			t.Fatal(err)
		}
		if got, err := scanAd(doc); err != nil || !sameAd(got, &want) {
			t.Errorf("%q: DecodeXML %#v (%v), oracle %#v", tc.src, got, err, &want)
		}
	}
}

// TestDecodeRepeatsMatchOracle: a name repeated in another case, or
// through the Kelvin sign or the dotted İ, replaces the earlier value in
// the earlier position, as encoding/xml's reading does; names that only
// look alike stay apart. It holds for an ad decoded into one that has
// attributes already, and for one that runs past scanMax.
func TestDecodeRepeatsMatchOracle(t *testing.T) {
	attr := func(name, src string) string {
		return fmt.Sprintf(`<attr name="%s">%s</attr>`, name, strings.ReplaceAll(src, `"`, "&#34;"))
	}
	var long strings.Builder
	for n := range numbered[:scanMax-2] {
		long.WriteString(attr(numbered[n], fmt.Sprint(n)))
	}
	for _, c := range []struct {
		what, body string
		onto       *Ad
	}{
		{"case", attr("Owner", `"ann"`) + attr("Memory", "64") + attr("OWNER", `{"a", "b"}`) + attr("owner", `other.x + 1`) + attr("MEMORY", `"m"`), nil},
		{"Kelvin sign", attr("k", "1") + attr("Kb", "2") + attr("K", `"kelvin"`) + attr("KB", `a + 1`) + attr("K", `{"x"}`), nil},
		{"dotted İ", attr("İ", "1") + attr("i", "2") + attr("I", "3") + attr("ı", "4") + attr("İ", `"again"`), nil},
		{"expressions", attr("R", "a + 1") + attr("r", "b + 1") + attr("S", "{x}") + attr("R", "7") + attr("s", "c"), nil},
		{"onto an ad", attr("a", "1") + attr("B", `"b"`) + attr("K", "k + 1"), New().SetInt("A", 0).Set("K", MustParseExpr("x"))},
		{"past scanMax", long.String() + attr("n1", `"one"`) + attr("Extra", "1") + attr("More", "2") + attr("Another", "4") + attr("N2", "b + 2") + attr("extra", "3"), nil},
	} {
		doc := []byte("<classad>" + c.body + "</classad>")
		s := xmlwire.NewScanner(doc)
		if err := s.Open("classad"); err != nil {
			t.Fatal(err)
		}
		got, want := new(Ad), new(Ad)
		if c.onto != nil {
			got, want = c.onto.Clone(), c.onto.Clone()
		}
		if err := got.DecodeXML(s); err != nil {
			t.Fatalf("%s: %v", c.what, err)
		}
		if err := xml.Unmarshal(doc, want); err != nil {
			t.Fatal(err)
		}
		if !sameAd(got, want) {
			t.Errorf("%s:\n got: %s\nwant: %s", c.what, got, want)
		}
	}
}

// The oracle: encoding/xml's reading of the wire form, which is what
// the ad's codec was before AppendXML and DecodeXML replaced it.

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
	for i := range a.attrs {
		x.Attrs = append(x.Attrs, xmlAttr{Name: a.attrs[i].name, Expr: a.attrs[i].source()})
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
	for _, at := range x.Attrs {
		ex, err := ParseExpr(at.Expr)
		if err != nil {
			return fmt.Errorf("classad: attribute %q: %w", at.Name, err)
		}
		a.Set(at.Name, ex)
	}
	return nil
}

// scanAd decodes a standalone <classad> document with DecodeXML.
func scanAd(doc []byte) (*Ad, error) {
	s := xmlwire.NewScanner(doc)
	if err := s.Open("classad"); err != nil {
		return nil, err
	}
	ad := new(Ad)
	if err := ad.DecodeXML(s); err != nil {
		return nil, err
	}
	return ad, s.End()
}

func TestAppendXMLMatchesMarshalXML(t *testing.T) {
	ads := []*Ad{
		New(),
		new(Ad),
		New().SetString("Name", "vm-1").SetInt("MemoryMB", 64).SetReal("Load", 0.25).SetBool("Up", true),
		New().SetString("Odd", "<&>\"'\t\r\n\x00\xff]]>").SetString(`na"me<`, "v").SetReal("Big", 1e21).SetInt("Neg", -3),
		New().SetValue("L", Strings("a", "b<c")).Set("Req", MustParseExpr(`other.Memory >= 64 && Arch == "x86"`)).Set("U", Lit(Undefined())),
		New().SetValue("Empty", List()).SetValue("Nested", List(Strings("a"), List(), Int(3), Real(0.5), Bool(true))).
			SetValue("Escaped", Strings(`a"b`, "tab\t", "é<&>")).SetValue("Odd", List(Undefined(), Errorf("x"), Real(1e21))).
			Set("Expr", MustParseExpr(`{x, "a"}`)).Set("Spaced", MustParseExpr("{ \"a\" ,\n\"b\" }")),
	}
	for _, ad := range ads {
		want, err := xml.Marshal(ad)
		if err != nil {
			t.Fatal(err)
		}
		got := ad.AppendXML(nil)
		if string(got) != string(want) {
			t.Errorf("bytes differ\n got: %q\nwant: %q", got, want)
		}
		var back Ad
		werr := xml.Unmarshal(got, &back)
		scanned, gerr := scanAd(got)
		if (gerr == nil) != (werr == nil) {
			t.Errorf("%q: decode error %v, encoding/xml %v", got, gerr, werr)
		} else if gerr == nil && (!sameAd(scanned, &back) || !bytes.Equal(scanned.AppendXML(nil), back.AppendXML(nil))) {
			t.Errorf("%q\n got: %#v\nwant: %#v", got, scanned, &back)
		}
	}
}

// FuzzAdXML: DecodeXML never panics, and what it accepts encoding/xml
// accepts, as the same ad.
func FuzzAdXML(f *testing.F) {
	f.Add([]byte(`<classad></classad>`))
	f.Add([]byte(`<classad><attr name="Name">&#34;vm-1&#34;</attr><attr name="MemoryMB">64</attr><attr name="Load">0.25</attr><attr name="Up">true</attr></classad>`))
	f.Add([]byte(`<?xml version="1.0"?><classad> <attr name='Req'>other.Memory &gt;= 64 &amp;&amp; Arch == "x86"</attr><!-- c --><attr name="L">{"a", "b"}</attr><x/></classad>`))
	f.Add([]byte("<classad><attr name=\"A\">1<!---->2</attr><attr name=\"a\">\"x\r\ny\"</attr><attr>-1</attr></classad>"))
	// A name repeated in another case, and a string literal with \".
	f.Add([]byte(`<classad><attr name="Owner">&#34;ann&#34;</attr><attr name="OWNER">"bob"</attr><attr name="owner">7</attr></classad>`))
	f.Add([]byte(`<classad><attr name="Say">"a \"quoted\" word"</attr><attr name="Plain">"a"</attr></classad>`))
	// Lists: of plain strings, with white space, empty, nested, with an
	// escape, with an expression, and two that do not parse.
	f.Add([]byte(`<classad><attr name="G">{&#34;a&#34;, &#34;b&#34;}</attr><attr name="S">{ "a" ,&#xA;&#x9;"b" }</attr><attr name="E">{}</attr></classad>`))
	f.Add([]byte(`<classad><attr name="N">{{1, "a"}, {}}</attr><attr name="Q">{"a\"b", "c"}</attr><attr name="X">{x, "a"}</attr></classad>`))
	f.Add([]byte(`<classad><attr name="T">{"a",}</attr><attr name="U">{"a" "b"}</attr></classad>`))
	f.Fuzz(func(t *testing.T, doc []byte) {
		got, err := scanAd(doc)
		if err != nil {
			return
		}
		var want Ad
		if err := xml.Unmarshal(doc, &want); err != nil {
			t.Fatalf("accepted what encoding/xml rejects (%v): %q", err, doc)
		}
		// Expressions hold no NaN (NaN is not a literal), so sameAd is
		// exact.
		if !sameAd(got, &want) || !bytes.Equal(got.AppendXML(nil), want.AppendXML(nil)) {
			t.Fatalf("decoded differently\n got: %#v\nwant: %#v\n%q", got, &want, doc)
		}
	})
}
