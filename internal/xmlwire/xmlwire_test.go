package xmlwire

import (
	"bytes"
	"encoding/xml"
	"math/rand"
	"strings"
	"testing"
)

func TestAppendEscapedMatchesEncodingXML(t *testing.T) {
	cases := []string{"", "plain", "<>&\"'", "\t\n\r", "\x00\x01\x1f\x7f", "\xff", "\xc0\xaf", "\xed\xa0\x80", "é\uFFFD\uFFFE\uFFFF\U0001F600", "a\xffb<c"}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		b := make([]byte, r.Intn(24))
		r.Read(b)
		cases = append(cases, string(b))
	}
	for _, s := range cases {
		var want bytes.Buffer
		if err := xml.EscapeText(&want, []byte(s)); err != nil {
			t.Fatal(err)
		}
		if got := AppendEscaped([]byte("x"), s); string(got) != "x"+want.String() {
			t.Errorf("AppendEscaped(%q) = %q, want %q", s, got[1:], want.String())
		}
	}
}

// walk reads a whole document the way a caller with no expectations
// would: every attribute, then text for a leaf or children otherwise,
// told apart by trying Text first on a copy of the scanner.
func walk(doc []byte) (string, error) {
	s := NewScanner(doc)
	var out strings.Builder
	name, err := s.root()
	if err != nil {
		return "", err
	}
	var element func(name []byte) error
	element = func(name []byte) error {
		out.WriteString("<" + string(name))
		for {
			n, v, ok, err := s.Attr()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			out.WriteString(" " + string(n) + "=" + string(v))
		}
		out.WriteString(">")
		leaf := *s
		if text, err := leaf.Text(); err == nil {
			*s = leaf
			out.WriteString(string(text) + "</>")
			return nil
		}
		for {
			child, ok, err := s.Next()
			if err != nil {
				return err
			}
			if !ok {
				out.WriteString("</>")
				return nil
			}
			if err := element(child); err != nil {
				return err
			}
		}
	}
	if err := element(name); err != nil {
		return "", err
	}
	return out.String(), s.End()
}

func TestScannerReads(t *testing.T) {
	for doc, want := range map[string]string{
		`<a/>`:                   `<a></>`,
		`<a></a>`:                `<a></>`,
		`<a x="1" y='two'>t</a>`: `<a x=1 y=two>t</>`,
		"<?xml version=\"1.0\" encoding='utf-8' standalone=\"no\" ?>\n<!-- c -->\n<a>\n <b>1</b>\n <!-- c -->\n <c k = \"v\" />\n</a >\n<!-- c -->\n": `<a><b>1</><c k=v></></>`,
		`<a>&lt;&gt;&amp;&apos;&quot;&#65;&#x42;&#x10FFFF;</a>`: "<a><>&'\"AB\U0010FFFF</>",
		"<a k='x\r\ny\rz&#xD;'>p\r\nq\r\rr</a>":                 "<a k=x\ny\nz\r>p\nq\n\nr</>",
		`<a>one<!-- -->two<!---->&amp;three</a>`:                `<a>onetwo&three</>`,
		`<a k="]]>">]] ></a>`:                                   `<a k=]]>>]] ></>`,
	} {
		got, err := walk([]byte(doc))
		if err != nil {
			t.Errorf("%q: %v", doc, err)
		} else if got != want {
			t.Errorf("%q read as %q, want %q", doc, got, want)
		}
	}
}

func TestScannerRejects(t *testing.T) {
	for _, doc := range []string{
		``, ` `, `text`, `<`, `<a`, `<a>`, `<a></b>`, `<a><b></a></b>`, `</a>`, `<a/><b/>`, `<a/>x`, `x<a/>`,
		`<a x></a>`, `<a x=1></a>`, `<a x="1"y="2"/>`, `<a x="1" x="2"/>`, `<a x="<"/>`, `<a x="1/>`, `<a / >`, `< a/>`, `</ a>`,
		`<a:b/>`, `<a xmlns="u"/>`, `<a x:y="1"/>`, `<é/>`, `<1a/>`, `<a.b-c_d1/ >`,
		`<a>&bogus;</a>`, `<a>&amp</a>`, `<a>&#;</a>`, `<a>&#x;</a>`, `<a>&#xD800;</a>`, `<a>&#0;</a>`, `<a>&#1114112;</a>`, `<a>&#X41;</a>`, `<a>&#99999999999999999999;</a>`,
		"<a>\x00</a>", "<a>\x0b</a>", "<a>\xff</a>", "<a>\xed\xa0\x80</a>", "<a>\uFFFE</a>", `<a>]]></a>`,
		`<a><![CDATA[x]]></a>`, `<!DOCTYPE a><a/>`, `<a><!DOCTYPE b></a>`, `<a><?pi?></a>`, `<?pi?><a/>`, ` <?xml version="1.0"?><a/>`,
		`<?xml version="1.1"?><a/>`, `<?xml encoding="utf-8"?><a/>`, `<?xml version="1.0" encoding="latin1"?><a/>`, `<?xml version="1.0" bogus="1"?><a/>`, `<?xml version="1.0"`,
		`<a><!-- -- --></a>`, `<a><!-- </a>`, `<!-- c --`,
		strings.Repeat("<a>", maxDepth+1) + strings.Repeat("</a>", maxDepth+1),
	} {
		if got, err := walk([]byte(doc)); err == nil {
			t.Errorf("%q accepted, read as %q", doc, got)
		}
	}
	if _, err := walk([]byte(strings.Repeat("<a>", maxDepth) + strings.Repeat("</a>", maxDepth))); err != nil {
		t.Errorf("%d levels rejected: %v", maxDepth, err)
	}
}

// Every prefix of a valid document is an error, never a panic; so is
// every single-byte corruption that is not accepted.
func TestScannerTruncationAndCorruption(t *testing.T) {
	doc := []byte(`<?xml version="1.0"?><m k="v&amp;" j='2'><a>t&#65;<!--c-->u</a><b><c x="1"/><d>]]</d></b><!--z--></m>`)
	if _, err := walk(doc); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(doc); i++ {
		if got, err := walk(doc[:i]); err == nil {
			t.Errorf("prefix %q accepted as %q", doc[:i], got)
		}
		for _, c := range []byte{0, '<', '>', '&', '"', '\'', '/', '!', '-', '?', ' ', 'x', 0xff} {
			mut := append([]byte(nil), doc...)
			mut[i] = c
			walk(mut) // must not panic
		}
	}
}

func TestSkipAndChildren(t *testing.T) {
	s := NewScanner([]byte(`<m><skip a="1">text<x><y/></x>&amp;more</skip><k>1</k><k>2</k><u/><v>3</v></m>`))
	if _, err := s.root(); err != nil {
		t.Fatal(err)
	}
	var ks, v string
	err := s.Children([]string{"k", "v"}, 1<<0, func(i int) error {
		text, err := s.Text()
		if i == 0 {
			ks += string(text)
		} else {
			v = string(text)
		}
		return err
	})
	if err != nil || ks != "12" || v != "3" {
		t.Errorf("ks=%q v=%q err=%v", ks, v, err)
	}
	if err := s.End(); err != nil {
		t.Error(err)
	}
	s = NewScanner([]byte(`<m><v>1</v><v>2</v></m>`))
	s.root()
	if err := s.Children([]string{"v"}, 0, func(int) error { _, err := s.Text(); return err }); err == nil {
		t.Error("duplicate scalar element accepted")
	}
	s = NewScanner([]byte(`<m><skip>&bogus;</skip></m>`))
	s.root()
	if err := s.Children(nil, 0, nil); err == nil {
		t.Error("bad entity inside a skipped element accepted")
	}
}
