package classad

import (
	"testing"

	"vmplants/internal/xmlwire"
)

// TestFrozenAdRefusesEveryEdit: each way of changing an ad panics on a
// frozen one, even an edit that would change nothing, and leaves it as
// it was; a Clone of it is writable and its own.
func TestFrozenAdRefusesEveryEdit(t *testing.T) {
	ad := MustParse(`[ A = 1; B = A + 1; C = "c" ]`).Freeze()
	before := ad.String()
	for what, edit := range map[string]func(){
		"Set":           func() { ad.Set("A", MustParseExpr("2")) },
		"SetInt":        func() { ad.SetInt("A", 1) },
		"SetValue":      func() { ad.SetValue("D", Strings("x")) },
		"Merge":         func() { ad.Merge(New()) },
		"Grow":          func() { ad.Grow(1) },
		"SetExprString": func() { ad.SetExprString("A", "(") },
		"Delete":        func() { ad.Delete("NoSuchAttribute") },
		"DecodeXML": func() {
			s := xmlwire.NewScanner([]byte(`<classad><attr name="A">2</attr></classad>`))
			if err := s.Open("classad"); err != nil {
				t.Fatal(err)
			}
			ad.DecodeXML(s)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a frozen ad did not panic", what)
				}
			}()
			edit()
		}()
	}
	if ad.String() != before {
		t.Errorf("frozen ad changed: %s, was %s", ad, before)
	}
	c := ad.Clone()
	c.SetInt("A", 5).Merge(MustParse(`[ D = 4 ]`))
	if got, want := c.String(), `[ A = 5; B = (A + 1); C = "c"; D = 4 ]`; got != want || c.GetInt("B", 0) != 6 {
		t.Errorf("clone after edits: %s, want %s", got, want)
	}
	if ad.String() != before {
		t.Errorf("editing the clone changed the frozen ad: %s", ad)
	}
	if New().Freeze().Freeze().Len() != 0 || (*Ad)(nil).Freeze() != nil {
		t.Error("Freeze of an empty or a nil ad")
	}
}

// TestWithIsCopyOnWrite: With makes a new frozen ad, its attributes
// sized exactly, binding the name where it was or appending it, and
// leaves the ad it was called on as it was. A frozen ad that already
// states the value is its own With.
func TestWithIsCopyOnWrite(t *testing.T) {
	ad := MustParse(`[ A = 1; B = A + 1; C = "c" ]`)
	for _, c := range []struct {
		name string
		v    Value
		want string
	}{
		{"a", Int(2), `[ A = 2; B = (A + 1); C = "c" ]`},
		{"B", Str("b"), `[ A = 1; B = "b"; C = "c" ]`},
		{"D", Real(0.5), `[ A = 1; B = (A + 1); C = "c"; D = 0.5 ]`},
	} {
		w := ad.With(c.name, c.v)
		if got := w.String(); got != c.want || len(w.attrs) != cap(w.attrs) {
			t.Errorf("With(%s, %v) = %s (%d of %d slots), want %s", c.name, c.v, got, len(w.attrs), cap(w.attrs), c.want)
		}
		if !w.frozen {
			t.Errorf("With(%s) is not frozen", c.name)
		}
		if got := ad.String(); got != `[ A = 1; B = (A + 1); C = "c" ]` {
			t.Errorf("With(%s) changed its ad: %s", c.name, got)
		}
	}
	frozen := ad.Clone().Freeze()
	if frozen.With("A", Int(1)) != frozen || frozen.With("C", Str("c")) != frozen {
		t.Error("a frozen ad stating the value is not its own With")
	}
	for what, w := range map[string]*Ad{
		"an unfrozen ad":      ad.With("A", Int(1)),
		"another value":       frozen.With("A", Real(1)),
		"an expression":       frozen.With("B", Int(2)),
		"a list, even a same": frozen.With("L", Strings("x")).With("L", Strings("x")),
	} {
		if w == frozen || w == ad {
			t.Errorf("With over %s returned its ad", what)
		}
	}
	if got := testing.AllocsPerRun(100, func() { frozen.With("A", Int(7)) }); got > 2 {
		t.Errorf("With: %v allocations, want at most 2 (the ad and its attributes)", got)
	}
	if got := testing.AllocsPerRun(100, func() { frozen.With("A", Int(1)) }); got != 0 {
		t.Errorf("With of the value stated: %v allocations, want 0", got)
	}
}

// TestWithKeepsALongAdIndexed: past scanMax attributes the copy gets an
// index of its own that finds every attribute, the appended one too.
func TestWithKeepsALongAdIndexed(t *testing.T) {
	ad := New()
	for n, name := range numbered[:scanMax] {
		ad.SetInt(name, int64(n))
	}
	if ad.index != nil {
		t.Fatalf("an ad of %d attributes is indexed", ad.Len())
	}
	long := ad.Freeze().With("Extra", Int(-1))
	if long.index == nil {
		t.Fatalf("an ad of %d attributes is not indexed", long.Len())
	}
	longer := long.With("EXTRA", Int(-2)).With("More", Int(-3))
	for n, name := range numbered[:scanMax] {
		if got := longer.GetInt(name, -9); got != int64(n) {
			t.Errorf("%s = %d, want %d", name, got, n)
		}
	}
	if longer.GetInt("extra", 0) != -2 || longer.GetInt("more", 0) != -3 || long.GetInt("extra", 0) != -1 || long.Len() != scanMax+1 {
		t.Errorf("appended attributes: %s", longer)
	}
}
