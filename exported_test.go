package ktrace_test

import (
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
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestEveryExportedNameIsUsed: every exported top-level function or method
// declared in a non-test file of the root package (the facade) or under
// internal/ is called from non-test code of the module (its own package
// included), implements a method of an interface, is named in a DESIGN.md §3 row (the experiment is its caller),
// is called by an Example in the root package (the facade's documented
// API), or lives in a package whose doc comment says it is test support.
// There is no allow-list: a name that meets none of these is deleted or
// unexported.
func TestEveryExportedNameIsUsed(t *testing.T) {
	unused, err := unusedExported(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range unused {
		t.Errorf("%s is exported, but nothing outside a test calls it and no DESIGN.md §3 row or Example names it", u)
	}
}

// TestUnusedExportedReportsOnlyTheUncalled runs the check over a fixture
// module holding one name of each kind it keeps, and one it must report
// in its root package and one under internal/.
func TestUnusedExportedReportsOnlyTheUncalled(t *testing.T) {
	unused, err := unusedExported("testdata/unused")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"fixture.Unshown", "p.Uncalled"}; !slices.Equal(unused, want) {
		t.Errorf("unused = %q, want %q", unused, want)
	}
}

// testSupport is the phrase a package doc comment carries when the
// package exists for tests and its exported names need no other caller.
const testSupport = "It is test support"

// unusedExported type-checks every non-test package of the module rooted
// at root, from source, and returns the exported functions and methods of
// its root package and under internal/ that none of
// TestEveryExportedNameIsUsed's rules keep,
// as sorted "pkg.Name" and "pkg.Type.Method" strings.
func unusedExported(root string) ([]string, error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := regexp.MustCompile(`(?m)^module\s+(\S+)`).FindSubmatch(gomod)
	if m == nil {
		return nil, errors.New("go.mod declares no module")
	}
	mod := &module{
		root:  root,
		path:  string(m[1]),
		fset:  token.NewFileSet(),
		std:   importer.Default(),
		pkgs:  map[string]*types.Package{},
		docs:  map[string]string{},
		byPkg: map[string][]*ast.File{},
		info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")) {
			return filepath.SkipDir
		}
		rel, _ := filepath.Rel(root, path) // path is under root
		_, err = mod.Import(strings.TrimSuffix(mod.path+"/"+filepath.ToSlash(rel), "/."))
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		}
		return err
	})
	if err != nil {
		return nil, err
	}

	// The candidates, and the declaration each one spans: a use inside its
	// own body (recursion) does not count.
	type candidate struct {
		name     string
		from, to token.Pos
	}
	cands := map[*types.Func]candidate{}
	for path, files := range mod.byPkg {
		if path != mod.path && !strings.HasPrefix(path, mod.path+"/internal/") || strings.Contains(mod.docs[path], testSupport) {
			continue
		}
		for _, f := range files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := mod.info.Defs[fd.Name].(*types.Func)
				name := fn.Pkg().Name() + "." + fn.Name()
				if recv := recvNamed(fn); recv != nil {
					name = fn.Pkg().Name() + "." + recv.Obj().Name() + "." + fn.Name()
				}
				cands[fn] = candidate{name, fd.Pos(), fd.End()}
			}
		}
	}

	used := map[*types.Func]bool{}
	for id, obj := range mod.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			fn = fn.Origin()
			if c, ok := cands[fn]; !ok || id.Pos() < c.from || id.Pos() >= c.to {
				used[fn] = true
			}
		}
	}
	examples, err := mod.exampleUses()
	if err != nil {
		return nil, err
	}
	for fn := range examples {
		used[fn] = true
	}
	measured, err := designSection3(root)
	if err != nil {
		return nil, err
	}
	ifaces := mod.interfaces()

	var unused []string
	for fn, c := range cands {
		if used[fn] || measured[c.name] || implements(fn, ifaces[fn.Name()]) {
			continue
		}
		unused = append(unused, c.name)
	}
	slices.Sort(unused)
	return unused, nil
}

// module is a types.Importer that checks the module's own packages from
// source, each once, and hands every other import to the standard
// library's importer.
type module struct {
	root, path string
	fset       *token.FileSet
	std        types.Importer
	pkgs       map[string]*types.Package
	docs       map[string]string
	byPkg      map[string][]*ast.File
	info       *types.Info
}

func (m *module) Import(path string) (*types.Package, error) {
	if path != m.path && !strings.HasPrefix(path, m.path+"/") {
		return m.std.Import(path)
	}
	if p, ok := m.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	dir := filepath.Join(m.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, m.path), "/")))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	files, err := m.parse(dir, bp.GoFiles)
	if err != nil {
		return nil, err
	}
	m.pkgs[path] = nil
	m.byPkg[path] = files
	for _, f := range files {
		if f.Doc != nil {
			m.docs[path] += f.Doc.Text()
		}
	}
	p, err := (&types.Config{Importer: m}).Check(path, m.fset, files, m.info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path] = p
	return p, nil
}

func (m *module) parse(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, n), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// exampleUses type-checks the root package's external tests and returns
// the functions and methods an Example function in them uses.
func (m *module) exampleUses() (map[*types.Func]bool, error) {
	bp, err := build.ImportDir(m.root, 0)
	if err != nil {
		return nil, err
	}
	files, err := m.parse(m.root, bp.XTestGoFiles)
	if err != nil {
		return nil, err
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	if _, err := (&types.Config{Importer: m}).Check(m.path+"_test", m.fset, files, info); err != nil {
		return nil, err
	}
	uses := map[*types.Func]bool{}
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Example") {
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := info.Uses[id].(*types.Func); ok {
							uses[fn.Origin()] = true
						}
					}
					return true
				})
			}
		}
	}
	return uses, nil
}

// interfaces returns, by method name, every non-generic interface the
// module can name: those declared at the top level of its packages and of
// every package they import, error and the unnamed interfaces through
// which package errors unwraps one (errors.Unwrap, Is and As), and each
// interface type an expression in the module has (a literal in a type
// assertion, say).
func (m *module) interfaces() map[string][]*types.Interface {
	byName := map[string][]*types.Interface{}
	add := func(t types.Type) {
		if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
			return
		}
		it, ok := t.Underlying().(*types.Interface)
		if !ok {
			return
		}
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			if !slices.Contains(byName[name], it) {
				byName[name] = append(byName[name], it)
			}
		}
	}
	errType := types.Universe.Lookup("error").Type()
	add(errType)
	for _, method := range []struct {
		name        string
		param, resu types.Type
	}{
		{"Unwrap", nil, errType},
		{"Unwrap", nil, types.NewSlice(errType)},
		{"Is", errType, types.Typ[types.Bool]},
		{"As", types.Universe.Lookup("any").Type(), types.Typ[types.Bool]},
	} {
		var params *types.Tuple
		if method.param != nil {
			params = types.NewTuple(types.NewParam(token.NoPos, nil, "", method.param))
		}
		sig := types.NewSignatureType(nil, nil, nil, params, types.NewTuple(types.NewParam(token.NoPos, nil, "", method.resu)), false)
		add(types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, method.name, sig)}, []types.Type{errType}).Complete())
	}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range m.pkgs {
		walk(p)
	}
	for _, tv := range m.info.Types {
		if tv.IsType() {
			add(tv.Type)
		}
	}
	return byName
}

// implements reports whether fn's receiver type, or a pointer to it,
// implements one of ifaces.
func implements(fn *types.Func, ifaces []*types.Interface) bool {
	recv := recvNamed(fn)
	if recv == nil || recv.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces {
		if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
			return true
		}
	}
	return false
}

// recvNamed returns the named type fn is a method of, or nil for a
// function.
func recvNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// designSection3 returns the "pkg.Name" and "pkg.Type.Method" names that
// §3 of root's DESIGN.md, the per-experiment index, names.
func designSection3(root string) (map[string]bool, error) {
	text, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		return nil, err
	}
	_, sec, ok := strings.Cut(string(text), "\n## 3.")
	if !ok {
		return nil, errors.New("DESIGN.md has no §3")
	}
	sec, _, _ = strings.Cut(sec, "\n## ")
	names := map[string]bool{}
	for _, m := range regexp.MustCompile(`\b[a-z][a-z0-9]*\.[A-Z][A-Za-z0-9_]*(?:\.[A-Z][A-Za-z0-9_]*)?`).FindAllString(sec, -1) {
		names[m] = true
	}
	return names, nil
}
