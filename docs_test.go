package ktrace_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestDocsReferToWhatExists: every cmd/, examples/ and internal/ path that
// README.md or DESIGN.md names exists, every `<pkg>.<Name>` they name for a
// package under internal/ is declared at the top level of that package,
// every backticked exported name in a module-table row of a package under
// internal/ is one of that package's top-level names, methods or struct
// fields, every `ktrace <verb>` README.md shows is in cmd/ktrace's verb table, and
// every -flag on a README.md `go run ./cmd/<bin>` line is declared by that
// binary (for ktrace, by any verb) — so a deletion or a rename cannot leave
// the docs pointing at what is gone.
func TestDocsReferToWhatExists(t *testing.T) {
	src, err := os.ReadFile("cmd/ktrace/main.go")
	if err != nil {
		t.Fatal(err)
	}
	verbs := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^\t\{"([a-z]+)", [a-z]+, "`).FindAllStringSubmatch(string(src), -1) {
		verbs[m[1]] = true
	}
	if len(verbs) == 0 {
		t.Fatal("no verb table in cmd/ktrace/main.go")
	}
	pkgs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	decls, members := map[string]map[string]bool{}, map[string]map[string]bool{}
	for _, p := range pkgs {
		if p.IsDir() {
			decls[p.Name()], members[p.Name()] = declaredNames(t, filepath.Join("internal", p.Name()))
		}
	}

	path := regexp.MustCompile(`\b(?:cmd|examples|internal)(?:/[A-Za-z0-9_.-]+)+`)
	name := regexp.MustCompile(`\b([a-z][a-z0-9]*)\.([A-Z][A-Za-z0-9_]*)`)
	verb := regexp.MustCompile(`\bktrace ([a-z]+)\b`)
	row := regexp.MustCompile("(?m)^\\| `internal/([a-z0-9]+)` \\|.*$")
	// A backticked exported name: Name, Type.Method or either called.
	span := regexp.MustCompile("`([A-Z][A-Za-z0-9_]*(?:\\.[A-Z][A-Za-z0-9_]*)*)(?:\\([^`]*\\))?`")
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range path.FindAllString(string(text), -1) {
			// A trailing ".Name" — or ".Type.Method" — is a Go identifier
			// in that package, and a trailing "." ends the sentence.
			for i := strings.LastIndexByte(p, '.'); i > strings.LastIndexByte(p, '/') &&
				(i == len(p)-1 || p[i+1] >= 'A' && p[i+1] <= 'Z'); i = strings.LastIndexByte(p, '.') {
				p = p[:i]
			}
			if _, err := os.Stat(p); err != nil {
				t.Errorf("%s names %s, which does not exist", doc, p)
			}
		}
		for _, m := range name.FindAllStringSubmatch(string(text), -1) {
			if names, ok := decls[m[1]]; ok && !names[m[2]] {
				t.Errorf("%s names %s.%s, which internal/%s does not declare", doc, m[1], m[2], m[1])
			}
		}
		for _, r := range row.FindAllStringSubmatch(string(text), -1) {
			names, ok := members[r[1]]
			for _, m := range span.FindAllStringSubmatch(r[0], -1) {
				for _, n := range strings.Split(m[1], ".") {
					if ok && !names[n] {
						t.Errorf("%s's internal/%s row names `%s`, which internal/%s does not declare", doc, r[1], m[1], r[1])
					}
				}
			}
		}
		if doc != "README.md" {
			continue
		}
		for _, m := range verb.FindAllStringSubmatch(string(text), -1) {
			if !verbs[m[1]] {
				t.Errorf("%s shows `ktrace %s`, which is not a verb of cmd/ktrace", doc, m[1])
			}
		}
		run := regexp.MustCompile(`(?m)^\s*go run \./cmd/([a-z]+)\b(.*)$`)
		flagArg := regexp.MustCompile(`^--?([A-Za-z][A-Za-z0-9-]*)(=.*)?$`)
		flags := map[string]map[string]bool{}
		for _, m := range run.FindAllStringSubmatch(strings.ReplaceAll(string(text), "\\\n", " "), -1) {
			args, _, _ := strings.Cut(m[2], "#")
			if flags[m[1]] == nil {
				flags[m[1]] = declaredFlags(t, m[1])
			}
			for _, arg := range strings.Fields(args) {
				if f := flagArg.FindStringSubmatch(arg); f != nil && !flags[m[1]][f[1]] {
					t.Errorf("%s runs cmd/%s with -%s, which it does not declare", doc, m[1], f[1])
				}
			}
		}
	}
}

// declaredFlags returns the flag names that binary's sources declare: the
// name literal of every Bool, Int, String, Duration, Float64, Int64 and
// Uint64 call, of their ...Var forms and of Var, in cmd/<bin>/*.go and
// internal/daemon/<bin>.go.
func declaredFlags(t *testing.T, bin string) map[string]bool {
	t.Helper()
	// Glob fails only on a malformed pattern; these are fixed.
	files, _ := filepath.Glob(filepath.Join("cmd", bin, "*.go"))
	daemon, _ := filepath.Glob(filepath.Join("internal", "daemon", bin+".go"))
	files = append(files, daemon...)
	nameArg := map[string]int{"Var": 1}
	for _, k := range []string{"Bool", "Int", "String", "Duration", "Float64", "Int64", "Uint64"} {
		nameArg[k], nameArg[k+"Var"] = 0, 1
	}
	names := map[string]bool{}
	fset := token.NewFileSet()
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if i, ok := nameArg[sel.Sel.Name]; ok && i < len(call.Args) {
				if lit, ok := call.Args[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if name, err := strconv.Unquote(lit.Value); err == nil {
						names[name] = true
					}
				}
			}
			return true
		})
	}
	if len(names) == 0 {
		t.Fatalf("found no flag declarations for cmd/%s", bin)
	}
	return names
}

// declaredNames returns what the non-test Go files in dir declare at the
// top level — functions, types, variables and constants — and, in members,
// those names with every method and struct field added.
func declaredNames(t *testing.T, dir string) (top, members map[string]bool) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	top, members = map[string]bool{}, map[string]bool{}
	fset := token.NewFileSet()
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					top[d.Name.Name] = true
				}
				members[d.Name.Name] = true
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						top[s.Name.Name] = true
						if st, ok := s.Type.(*ast.StructType); ok {
							for _, f := range st.Fields.List {
								for _, n := range f.Names {
									members[n.Name] = true
								}
							}
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							top[n.Name] = true
						}
					}
				}
			}
		}
	}
	for n := range top {
		members[n] = true
	}
	return top, members
}
