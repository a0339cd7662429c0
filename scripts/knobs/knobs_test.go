// Package knobs holds one check: "an option no run sets" as a measured
// list. A struct field is an option somebody can set; the check lists
// every exported field of an exported struct type, declared in a
// non-main package of this module, that no non-test code outside its
// own package writes (the product never sets it) while a test or the
// bench module does, or that nothing writes at all. Each listed field
// needs a line in scripts/knobs.allow; a listed field without one, and a
// line whose field is no longer listed, fail the check.
//
//	go test -count=1 ./scripts/knobs        the check (make knobs)
//	go test -count=1 -v ./scripts/knobs     also print the list
//
// Writes are resolved with go/types over every Go file of this module
// and of the bench module (standard library through go/importer in
// source mode): an assignment or ++/-- whose left side reaches the
// field, a composite literal that names it (or sets every field by
// position), or its address taken.
//
// scripts/knobs.allow holds one line per listed field: `pkg.Type.Field
// class reason…`, with scripts/reach.sh's classes: oracle, seam, api
// (the root package only), platform, paper, pinned (only and always for
// a field the frozen bench module sets).
package knobs

import (
	"bufio"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// writers says who writes a field.
type writers struct {
	product bool // non-test code of this module outside the declaring package
	self    bool // non-test code of the declaring package
	bench   bool // non-test code of the bench module
	tests   []string
}

// field is one exported field of an exported struct type.
type field struct {
	name string // import/path.Type.Field
	pos  string
	pkg  string
	w    writers
}

// listed reports whether the field has no product caller: tests or the
// bench module set it, or nothing does.
func (f *field) listed() bool {
	if f.w.product {
		return false
	}
	return len(f.w.tests) > 0 || f.w.bench || !f.w.self
}

func (f *field) why() string {
	var by []string
	if f.w.self {
		by = append(by, "its own package")
	}
	if f.w.bench {
		by = append(by, "bench")
	}
	if len(f.w.tests) > 0 {
		by = append(by, strings.Join(f.w.tests, ", "))
	}
	if len(by) == 0 {
		return "set by nothing"
	}
	return "set only by " + strings.Join(by, ", ")
}

var classes = map[string]bool{"oracle": true, "seam": true, "api": true, "platform": true, "paper": true, "pinned": true}

func TestEveryOptionHasAProductCaller(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	fields, err := scan(root)
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readAllow(filepath.Join(root, "scripts", "knobs.allow"))
	if err != nil {
		t.Fatal(err)
	}
	module, err := modulePath(root)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(fields))
	for name := range fields {
		names = append(names, name)
	}
	slices.Sort(names)
	n := 0
	for _, name := range names {
		f := fields[name]
		if !f.listed() {
			continue
		}
		n++
		where := strings.TrimPrefix(f.pos, root+string(filepath.Separator))
		t.Logf("%s\t%s\t%s", name, where, f.why())
		class, ok := allow[name]
		switch {
		case !ok:
			t.Errorf("%s (%s) has no product caller, %s: set it where the product runs, make it a constant, delete it, or allowlist it in scripts/knobs.allow", name, where, f.why())
		case class == "pinned" && !f.w.bench:
			t.Errorf("knobs.allow: %s is pinned but bench does not set it", name)
		case class != "pinned" && f.w.bench:
			t.Errorf("knobs.allow: %s is set by the frozen bench module: class it pinned", name)
		case class == "api" && f.pkg != module:
			t.Errorf("knobs.allow: api is for the root package only: %s", name)
		}
	}
	t.Logf("%d fields without a product caller", n)
	stale := make([]string, 0, len(allow))
	for name := range allow {
		stale = append(stale, name)
	}
	slices.Sort(stale)
	for _, name := range stale {
		f, ok := fields[name]
		switch {
		case !ok:
			t.Errorf("knobs.allow: %s is no longer an exported field: drop its line", name)
		case !f.listed():
			t.Errorf("knobs.allow: %s now has a product caller: drop its line", name)
		}
	}
}

// readAllow parses the allowlist into field → class.
func readAllow(path string) (map[string]string, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	allow := make(map[string]string)
	sc := bufio.NewScanner(fh)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Fields(text)
		if len(parts) < 3 || !classes[parts[1]] {
			return nil, fmt.Errorf("%s:%d: want `pkg.Type.Field class reason`, class one of oracle seam api platform paper pinned: %s", path, line, text)
		}
		if _, dup := allow[parts[0]]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, line, parts[0])
		}
		allow[parts[0]] = parts[1]
	}
	return allow, sc.Err()
}

// modulePath reads the module path from dir/go.mod.
func modulePath(dir string) (string, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s/go.mod names no module", dir)
}

// pkg is one directory's package as the go tool builds it.
type pkg struct {
	path  string
	dir   string
	bench bool
	bp    *build.Package
}

// scan type-checks both modules and returns every exported field of an
// exported struct type of a non-main package, with its writers.
func scan(root string) (map[string]*field, error) {
	var pkgs []pkg
	for _, m := range []struct {
		dir   string
		bench bool
	}{{root, false}, {filepath.Join(root, "bench"), true}} {
		found, err := packages(m.dir, m.bench)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, found...)
	}

	// cgo off: the standard library then type-checks from pure Go files.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	imp := cachedImporter{importer.ForCompiler(fset, "source", nil).(types.ImporterFrom), make(map[string]*types.Package)}
	fields := make(map[string]*field) // by name
	byPos := make(map[string]*field)
	type checked struct {
		p     pkg
		files []*ast.File
		info  *types.Info
	}
	var all []checked
	for _, p := range pkgs {
		bp := p.bp
		// The package with its in-package tests, then its external tests
		// against it.
		files, err := parse(fset, p.dir, append(append([]string(nil), bp.GoFiles...), bp.TestGoFiles...))
		if err != nil {
			return nil, err
		}
		info := newInfo()
		self, err := check(fset, imp, p.path, files, info, nil)
		if err != nil {
			return nil, err
		}
		all = append(all, checked{p, files, info})
		if !p.bench && bp.Name != "main" {
			for _, f := range declared(fset, self) {
				fields[f.name] = f
				byPos[f.pos] = f
			}
		}
		if len(bp.XTestGoFiles) > 0 {
			xfiles, err := parse(fset, p.dir, bp.XTestGoFiles)
			if err != nil {
				return nil, err
			}
			xinfo := newInfo()
			if _, err := check(fset, imp, p.path+"_test", xfiles, xinfo, self); err != nil {
				return nil, err
			}
			all = append(all, checked{p, xfiles, xinfo})
		}
	}
	for _, c := range all {
		for _, file := range c.files {
			name := fset.Position(file.Pos()).Filename
			test := strings.HasSuffix(name, "_test.go")
			writes(file, c.info, func(obj *types.Var) {
				f := byPos[fset.Position(obj.Pos()).String()]
				if f == nil {
					return
				}
				switch {
				case test:
					f.w.tests = append(f.w.tests, strings.TrimPrefix(name, root+"/"))
				case c.p.bench:
					f.w.bench = true
				case c.p.path == f.pkg:
					f.w.self = true
				default:
					f.w.product = true
				}
			})
		}
	}
	for _, f := range fields {
		slices.Sort(f.w.tests)
		f.w.tests = slices.Compact(f.w.tests)
	}
	return fields, nil
}

// packages lists the module's package directories under dir: the bench
// module is walked on its own, and testdata never.
func packages(dir string, bench bool) ([]pkg, error) {
	module, err := modulePath(dir)
	if err != nil {
		return nil, err
	}
	var out []pkg
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		base := d.Name()
		if path != dir && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") ||
			fileExists(filepath.Join(path, "go.mod"))) {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(path, build.ImportComment)
		var none *build.NoGoError
		if errors.As(err, &none) {
			return nil
		}
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		ip := module
		if rel != "." {
			ip += "/" + filepath.ToSlash(rel)
		}
		out = append(out, pkg{path: ip, dir: path, bench: bench, bp: bp})
		return nil
	})
	return out, err
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

func parse(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
}

// check type-checks one package. An external test package imports
// under, the package with its in-package tests, instead of the plain
// one; the two copies of a package then differ to go/types, so its
// errors are ignored (a field is keyed by its position, which both
// copies share). Every other package must check cleanly.
func check(fset *token.FileSet, imp types.ImporterFrom, path string, files []*ast.File, info *types.Info, under *types.Package) (*types.Package, error) {
	conf := types.Config{Importer: imp}
	var first error
	conf.Error = func(err error) {
		if first == nil {
			first = err
		}
	}
	if under != nil {
		conf.Importer = xtestImporter{imp, under}
	}
	pkg, _ := conf.Check(path, fset, files, info)
	if under == nil && first != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, first)
	}
	return pkg, nil
}

// cachedImporter resolves each import path once. The source importer
// asks the go command where a module path lives on every call, and an
// import path names one directory here: bench requires this module
// through a replace directive.
type cachedImporter struct {
	types.ImporterFrom
	pkgs map[string]*types.Package
}

func (c cachedImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p := c.pkgs[path]; p != nil {
		return p, nil
	}
	p, err := c.ImporterFrom.ImportFrom(path, dir, mode)
	if err == nil {
		c.pkgs[path] = p
	}
	return p, err
}

type xtestImporter struct {
	types.ImporterFrom
	under *types.Package
}

func (x xtestImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == x.under.Path() {
		return x.under, nil
	}
	return x.ImporterFrom.ImportFrom(path, dir, mode)
}

// declared lists the exported fields of the package's exported struct
// types that its non-test files declare.
func declared(fset *token.FileSet, p *types.Package) []*field {
	var out []*field
	scope := p.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() || tn.IsAlias() || strings.HasSuffix(fset.Position(tn.Pos()).Filename, "_test.go") {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			v := st.Field(i)
			if !v.Exported() {
				continue
			}
			out = append(out, &field{
				name: p.Path() + "." + name + "." + v.Name(),
				pos:  fset.Position(v.Pos()).String(),
				pkg:  p.Path(),
			})
		}
	}
	return out
}

// writes calls set for every field the file writes.
func writes(file *ast.File, info *types.Info, set func(*types.Var)) {
	// target marks the field an assignable expression writes, and the
	// fields holding it by value: x.a.b = v writes b, and a when x.a is
	// a struct; x.a[i] = v writes a only when a is an array.
	var target func(e ast.Expr)
	target = func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.ParenExpr:
			target(e.X)
		case *ast.IndexExpr:
			if _, ok := underlying(info.TypeOf(e.X)).(*types.Array); ok {
				target(e.X)
			}
		case *ast.SelectorExpr:
			if sel := info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
				set(sel.Obj().(*types.Var))
				if _, ok := underlying(info.TypeOf(e.X)).(*types.Struct); ok {
					target(e.X)
				}
			}
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				target(lhs)
			}
		case *ast.IncDecStmt:
			target(n.X)
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				target(n.Key)
				if n.Value != nil {
					target(n.Value)
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				target(n.X)
			}
		case *ast.CompositeLit:
			tv, ok := info.Types[n]
			if !ok {
				break
			}
			st, ok := tv.Type.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						if v, ok := info.Uses[id].(*types.Var); ok {
							set(v)
						}
					}
				} else if i < st.NumFields() {
					set(st.Field(i))
				}
			}
		}
		return true
	})
}

// underlying is t's underlying type, nil for an expression an external
// test package's type errors left untyped.
func underlying(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	return t.Underlying()
}
