package hiway_test

import (
	"bufio"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// reachAllowlist is the committed list of exported identifiers under
// internal/ that no production file references but an out-of-package test
// or CI step needs, and of struct fields no production file reads but a test
// does. It may only shrink: an entry that becomes reached or read, or no
// longer exists, fails TestReach.
const reachAllowlist = "reach_allowlist.txt"

// goPackage is one directory of the module: its import path, its parsed
// files, and (once checked) its type information.
type goPackage struct {
	path  string
	dir   string
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// loadModule parses every file of the module that the default build context
// selects, test files included or excluded, grouped by directory.
func loadModule(t *testing.T, fset *token.FileSet, tests bool) map[string]*goPackage {
	t.Helper()
	mod := modulePath(t)
	pkgs := map[string]*goPackage{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") != tests {
			return nil
		}
		dir := filepath.Dir(path)
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		key := dir
		if tests && strings.HasSuffix(f.Name.Name, "_test") {
			key += "_test" // the external test package lives beside the package it tests
		}
		p := pkgs[key]
		if p == nil {
			p = &goPackage{path: mod, dir: dir}
			if dir != "." {
				p.path += "/" + filepath.ToSlash(dir)
			}
			pkgs[key] = p
		}
		p.files = append(p.files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

func modulePath(t *testing.T) string {
	t.Helper()
	raw, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	t.Fatal("go.mod: no module line")
	return ""
}

func newInfo() *types.Info {
	return &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
}

// checkModule type-checks every production package exactly once, in import
// order: the module's own packages are served from the map as they finish,
// the standard library from its export data.
func checkModule(t *testing.T, fset *token.FileSet, pkgs map[string]*goPackage, std types.Importer) {
	t.Helper()
	byPath := map[string]*goPackage{}
	for _, p := range pkgs {
		byPath[p.path] = p
	}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := byPath[path]; ok {
			return p.pkg, nil
		}
		return std.Import(path)
	})
	var visit func(p *goPackage)
	visit = func(p *goPackage) {
		if p.info != nil {
			return
		}
		p.info = newInfo()
		for _, f := range p.files {
			for _, spec := range f.Imports {
				path, _ := strconv.Unquote(spec.Path.Value)
				if dep, ok := byPath[path]; ok {
					visit(dep)
				}
			}
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(p.path, fset, p.files, p.info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.path, err)
		}
		p.pkg = pkg
	}
	for _, dir := range sortedKeys(pkgs) {
		visit(pkgs[dir])
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// exported is one exported identifier declared under internal/: its object,
// its name as the allowlist writes it, and the source ranges whose mentions
// of it do not count as references (its own declaration, and for a type
// the receivers of its methods).
type exported struct {
	obj  types.Object
	name string
	pos  token.Position
	self [][2]token.Pos
}

// reachKey names an object independently of which type-check produced it,
// so uses found while checking test files match production declarations.
func reachKey(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			return obj.Pkg().Path() + ".(" + recvName(recv.Type()) + ")." + obj.Name()
		}
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

func recvName(typ types.Type) string {
	star := ""
	if p, ok := typ.(*types.Pointer); ok {
		star, typ = "*", p.Elem()
	}
	if n, ok := typ.(*types.Named); ok {
		return star + n.Obj().Name()
	}
	return star + typ.String()
}

// declaredExports lists every exported package-level identifier and every
// exported method declared in the production files of internal/.
func declaredExports(fset *token.FileSet, pkgs map[string]*goPackage) map[types.Object]*exported {
	out := map[types.Object]*exported{}
	selfRange := map[types.Object][][2]token.Pos{}
	for _, dir := range sortedKeys(pkgs) {
		p := pkgs[dir]
		rel, ok := strings.CutPrefix(filepath.ToSlash(dir), "internal/")
		if !ok {
			continue
		}
		add := func(id *ast.Ident, node ast.Node, name string) {
			obj := p.info.Defs[id]
			out[obj] = &exported{obj: obj, name: name, pos: fset.Position(id.Pos())}
			selfRange[obj] = append(selfRange[obj], [2]token.Pos{node.Pos(), node.End()})
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv != nil {
						recv := recvName(p.info.Defs[d.Name].Type().(*types.Signature).Recv().Type())
						if named := p.pkg.Scope().Lookup(strings.TrimPrefix(recv, "*")); named != nil {
							selfRange[named] = append(selfRange[named], [2]token.Pos{d.Recv.Pos(), d.Recv.End()})
						}
						if d.Name.IsExported() {
							if strings.HasPrefix(recv, "*") {
								recv = "(" + recv + ")"
							}
							add(d.Name, d, rel+"."+recv+"."+d.Name.Name)
						}
					} else if d.Name.IsExported() {
						add(d.Name, d, rel+"."+d.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								add(s.Name, s, rel+"."+s.Name.Name)
							}
						case *ast.ValueSpec:
							for _, id := range s.Names {
								if id.IsExported() {
									add(id, s, rel+"."+id.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	for obj, e := range out {
		e.self = selfRange[obj]
	}
	return out
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// reachedExports returns the exported identifiers some production file
// references — directly, or for a method, through an interface the program
// calls that method on, or one the standard library calls it through.
func reachedExports(pkgs map[string]*goPackage, decls map[types.Object]*exported, std types.Importer) (map[types.Object]bool, error) {
	reached := map[types.Object]bool{}
	ifaces := map[string][]*types.Interface{}
	for _, p := range pkgs {
		for id, obj := range p.info.Uses {
			obj = origin(obj)
			if fn, ok := obj.(*types.Func); ok {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					ifaces[fn.Name()] = append(ifaces[fn.Name()], recv.Type().Underlying().(*types.Interface))
				}
			}
			e := decls[obj]
			if e == nil || reached[obj] || within(id.Pos(), e.self) {
				continue
			}
			reached[obj] = true
		}
	}
	stdIfaces := []struct{ pkg, name string }{
		{"", "error"}, {"fmt", "Stringer"}, {"net/http", "ResponseWriter"}, {"net/http", "Handler"},
		{"sort", "Interface"}, {"encoding/json", "Marshaler"},
	}
	for _, si := range stdIfaces {
		scope := types.Universe
		if si.pkg != "" {
			pkg, err := std.Import(si.pkg)
			if err != nil {
				return nil, err
			}
			scope = pkg.Scope()
		}
		iface := scope.Lookup(si.name).Type().Underlying().(*types.Interface)
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			ifaces[name] = append(ifaces[name], iface)
		}
	}
	for obj := range decls {
		fn, ok := obj.(*types.Func)
		if !ok || reached[obj] {
			continue
		}
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			continue
		}
		base := recv.Type()
		if ptr, ok := base.(*types.Pointer); ok {
			base = ptr.Elem()
		}
		for _, iface := range ifaces[fn.Name()] {
			if types.Implements(base, iface) || types.Implements(types.NewPointer(base), iface) {
				reached[obj] = true
				break
			}
		}
	}
	return reached, nil
}

func within(pos token.Pos, ranges [][2]token.Pos) bool {
	for _, r := range ranges {
		if pos >= r[0] && pos < r[1] {
			return true
		}
	}
	return false
}

// testUses type-checks the module's test files — each in-package test beside
// its package's production files, each external test package against them —
// and returns the keys of every object a test file references. It runs only
// to label failures, so type errors (test-only import cycles make the
// in-package variants disagree with the production packages) are tolerated.
func testUses(fset *token.FileSet, prod map[string]*goPackage, std types.Importer, t *testing.T) map[string]bool {
	tests := loadModule(t, fset, true)
	byPath := map[string]*types.Package{}
	for _, p := range prod {
		byPath[p.path] = p.pkg
	}
	used := map[string]bool{}
	check := func(path string, files []*ast.File, testFiles map[*ast.File]bool, override *types.Package) *types.Package {
		info := newInfo()
		conf := types.Config{
			Importer: importerFunc(func(ip string) (*types.Package, error) {
				if override != nil && ip == override.Path() {
					return override, nil
				}
				if pkg, ok := byPath[ip]; ok {
					return pkg, nil
				}
				return std.Import(ip)
			}),
			Error: func(error) {},
		}
		pkg, _ := conf.Check(path, fset, files, info)
		for id, obj := range info.Uses {
			if obj.Pkg() == nil || !testFiles[fileOf(files, id.Pos())] {
				continue
			}
			used[reachKey(origin(obj))] = true
		}
		return pkg
	}
	for _, key := range sortedKeys(tests) {
		if strings.HasSuffix(key, "_test") {
			continue
		}
		tp := tests[key]
		var files []*ast.File
		if p := prod[tp.dir]; p != nil {
			files = append(files, p.files...)
		}
		testFiles := map[*ast.File]bool{}
		for _, f := range tp.files {
			testFiles[f] = true
		}
		tp.pkg = check(tp.path, append(files, tp.files...), testFiles, nil)
	}
	for _, key := range sortedKeys(tests) {
		tp := tests[key]
		if !strings.HasSuffix(key, "_test") {
			continue
		}
		var override *types.Package
		if in := tests[tp.dir]; in != nil {
			override = in.pkg
		}
		testFiles := map[*ast.File]bool{}
		for _, f := range tp.files {
			testFiles[f] = true
		}
		check(tp.path+"_test", tp.files, testFiles, override)
	}
	return used
}

func fileOf(files []*ast.File, pos token.Pos) *ast.File {
	for _, f := range files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}

// readAllowlist parses reach_allowlist.txt: one identifier per line followed
// by the out-of-package test file or CI step that needs it; '#' starts a
// comment line.
func readAllowlist(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(reachAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, why, _ := strings.Cut(line, " ")
		why = strings.TrimSpace(why)
		if !strings.Contains(why, "_test.go") && !strings.Contains(why, "ci.yml") {
			t.Errorf("%s:%d: %s must name the out-of-package test file or ci.yml step that needs it", reachAllowlist, n, name)
		}
		if _, dup := out[name]; dup {
			t.Errorf("%s:%d: %s listed twice", reachAllowlist, n, name)
		}
		out[name] = why
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// field is one struct field declared in a production file under internal/
// or cmd/: its name as the allowlist writes it (package, owning type,
// field), where it is declared, where production code writes it, and
// whether production code reads it.
type field struct {
	name   string
	pos    token.Position
	writes []token.Position
	read   bool
}

// declaredFields lists the fields of every struct type declared in a
// production file under internal/ or cmd/, except fields with a tag
// (reflection reads them), embedded fields and blank fields. A struct type
// is named by its type declaration, by the field whose type it is, or, for
// an anonymous struct elsewhere, by the function it appears in.
func declaredFields(fset *token.FileSet, pkgs map[string]*goPackage) map[*types.Var]*field {
	out := map[*types.Var]*field{}
	for _, dir := range sortedKeys(pkgs) {
		p := pkgs[dir]
		rel := filepath.ToSlash(dir)
		if r, ok := strings.CutPrefix(rel, "internal/"); ok {
			rel = r
		} else if !strings.HasPrefix(rel, "cmd/") {
			continue
		}
		for _, f := range p.files {
			owner := map[ast.Expr]string{}
			for _, decl := range f.Decls {
				scope := "_"
				if fn, ok := decl.(*ast.FuncDecl); ok {
					scope = fn.Name.Name
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.TypeSpec:
						owner[n.Type] = n.Name.Name
					case *ast.StructType:
						name, ok := owner[n]
						if !ok {
							name = scope
						}
						for _, fl := range n.Fields.List {
							for _, id := range fl.Names {
								owner[structOf(fl.Type)] = name + "." + id.Name
								if fl.Tag != nil || id.Name == "_" {
									continue
								}
								v := p.info.Defs[id].(*types.Var)
								out[v] = &field{name: rel + "." + name + "." + id.Name, pos: fset.Position(id.Pos())}
							}
						}
					}
					return true
				})
			}
		}
	}
	return out
}

// structOf unwraps pointer, slice, array and map-value types down to the
// struct type literal they hold, if any.
func structOf(e ast.Expr) ast.Expr {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.ArrayType:
			e = t.Elt
		case *ast.MapType:
			e = t.Value
		default:
			return e
		}
	}
}

// markFieldUses records, for every production use of a declared field,
// whether it reads the field. A use is a write, not a read, when it is a
// composite-literal key, the left side of an assignment or inc/dec, a store
// into an element (x.f[k] = v), or the first argument of a self-append
// (x.f = append(x.f, ...)).
func markFieldUses(fset *token.FileSet, pkgs map[string]*goPackage, fields map[*types.Var]*field) {
	for _, dir := range sortedKeys(pkgs) {
		p := pkgs[dir]
		writes := map[token.Pos]bool{}
		store := func(e ast.Expr) {
			e = ast.Unparen(e)
			if ix, ok := e.(*ast.IndexExpr); ok {
				e = ast.Unparen(ix.X)
			}
			if sel, ok := e.(*ast.SelectorExpr); ok {
				writes[sel.Sel.Pos()] = true
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								writes[id.Pos()] = true
							}
						}
					}
				case *ast.IncDecStmt:
					store(n.X)
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						store(lhs)
					}
					if len(n.Lhs) != 1 || len(n.Rhs) != 1 {
						break
					}
					call, ok := n.Rhs[0].(*ast.CallExpr)
					if !ok || len(call.Args) == 0 {
						break
					}
					if fn, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && fn.Name == "append" {
						_, builtin := p.info.Uses[fn].(*types.Builtin)
						if builtin && types.ExprString(call.Args[0]) == types.ExprString(n.Lhs[0]) {
							store(call.Args[0])
						}
					}
				}
				return true
			})
		}
		for id, obj := range p.info.Uses {
			v, ok := obj.(*types.Var)
			if !ok || !v.IsField() {
				continue
			}
			fl := fields[v.Origin()]
			switch {
			case fl == nil:
			case writes[id.Pos()]:
				fl.writes = append(fl.writes, fset.Position(id.Pos()))
			default:
				fl.read = true
			}
		}
	}
}

// checkFields is TestReach's field rule: every declared field must be read
// by some production file of the module, or be allowlisted with the test
// that reads it. It reports each unread field with its write sites and each
// allowlisted field that is now read, logs the other allowlisted fields
// with their reasons (CI's reach report prints them as test debt), and
// returns the names of the declared fields.
func checkFields(t *testing.T, fset *token.FileSet, pkgs map[string]*goPackage, allow map[string]string) map[string]bool {
	t.Helper()
	fields := declaredFields(fset, pkgs)
	markFieldUses(fset, pkgs, fields)
	names := map[string]bool{}
	var unread []*field
	for _, fl := range fields {
		names[fl.name] = true
		switch why := allow[fl.name]; {
		case why == "" && !fl.read:
			unread = append(unread, fl)
		case why != "" && fl.read:
			t.Errorf("%s: field %s is now read by production code; delete its line", reachAllowlist, fl.name)
		case why != "":
			t.Logf("allowlisted field %s: %s", fl.name, why)
		}
	}
	sort.Slice(unread, func(i, j int) bool { return unread[i].name < unread[j].name })
	for _, fl := range unread {
		sort.Slice(fl.writes, func(i, j int) bool {
			a, b := fl.writes[i], fl.writes[j]
			return a.Filename < b.Filename || a.Filename == b.Filename && a.Offset < b.Offset
		})
		if len(fl.writes) == 0 {
			t.Errorf("%s: field %s is never read or written by production code", fl.pos, fl.name)
			continue
		}
		sites := make([]string, len(fl.writes))
		for i, w := range fl.writes {
			sites[i] = w.String()
		}
		t.Errorf("%s: field %s is never read by production code; written at %s", fl.pos, fl.name, strings.Join(sites, ", "))
	}
	return names
}

// TestReach is the reachability rule as a gate: every exported identifier
// declared in a production file under internal/ must be referenced by some
// production file of the module (cmd/, bench/, examples/ or internal/).
// Same-package test use never justifies an export — unexport it or move it to
// export_test.go; an out-of-package test or CI step that needs one lists it
// in reach_allowlist.txt, which may only shrink. The same holds for struct
// fields declared under internal/ and cmd/: each must be read by some
// production file (checkFields), and the test that reads an allowlisted one
// may be in its own package.
func TestReach(t *testing.T) {
	fset := token.NewFileSet()
	std := importer.Default()
	pkgs := loadModule(t, fset, false)
	checkModule(t, fset, pkgs, std)
	decls := declaredExports(fset, pkgs)
	reached, err := reachedExports(pkgs, decls, std)
	if err != nil {
		t.Fatal(err)
	}
	allow := readAllowlist(t)

	var unreached []*exported
	byName := map[string]*exported{}
	for obj, e := range decls {
		byName[e.name] = e
		if !reached[obj] && allow[e.name] == "" {
			unreached = append(unreached, e)
		}
	}
	fields := checkFields(t, fset, pkgs, allow)
	for _, name := range sortedKeys(allow) {
		switch e := byName[name]; {
		case e == nil && !fields[name]:
			t.Errorf("%s: %s no longer exists; delete its line", reachAllowlist, name)
		case e != nil && reached[e.obj]:
			t.Errorf("%s: %s is now referenced by production code; delete its line", reachAllowlist, name)
		}
	}
	if len(unreached) == 0 {
		return
	}
	sort.Slice(unreached, func(i, j int) bool { return unreached[i].name < unreached[j].name })
	inTests := testUses(fset, pkgs, std, t)
	for _, e := range unreached {
		kind := "unreferenced"
		if inTests[reachKey(e.obj)] {
			kind = "test-only"
		}
		t.Errorf("%s: %s: %s", e.pos, e.name, kind)
	}
	t.Logf("%d exported identifiers under internal/ have no production reference", len(unreached))
}
