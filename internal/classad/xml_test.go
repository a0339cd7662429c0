package classad

import (
	"encoding/xml"
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
		New().SetStrings("L", "a", "b<c").Set("Req", MustParseExpr(`other.Memory >= 64 && Arch == "x86"`)).Set("U", Lit(Undefined())),
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
		} else if gerr == nil && !reflect.DeepEqual(scanned, &back) {
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
	f.Fuzz(func(t *testing.T, doc []byte) {
		got, err := scanAd(doc)
		if err != nil {
			return
		}
		var want Ad
		if err := xml.Unmarshal(doc, &want); err != nil {
			t.Fatalf("accepted what encoding/xml rejects (%v): %q", err, doc)
		}
		// Expressions hold no NaN (NaN is not a literal), so DeepEqual
		// is exact.
		if !reflect.DeepEqual(got, &want) {
			t.Fatalf("decoded differently\n got: %#v\nwant: %#v\n%q", got, &want, doc)
		}
	})
}
