package hiway_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"hiway/internal/service"
)

// fencedBlocks returns the fenced code blocks of a markdown file as
// (language, body) pairs, failing the test on an unbalanced fence.
func fencedBlocks(t *testing.T, path string) [][2]string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var blocks [][2]string
	var lang string
	var body []string
	open := false
	for i, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "```") {
			if open {
				blocks = append(blocks, [2]string{lang, strings.Join(body, "\n")})
				open, body = false, nil
			} else {
				open = true
				lang = strings.TrimPrefix(line, "```")
			}
			continue
		}
		if open {
			body = append(body, line)
		}
		_ = i
	}
	if open {
		t.Fatalf("%s: unclosed ``` fence", path)
	}
	return blocks
}

var docFiles = []string{"README.md", "OBSERVABILITY.md", "DESIGN.md", "EXPERIMENTS.md", "TESTING.md", "SERVICE.md"}

// TestMarkdownFencesBalanced guards against a truncated or mis-edited doc:
// every fenced block in the operator-facing markdown must close.
func TestMarkdownFencesBalanced(t *testing.T) {
	for _, f := range docFiles {
		fencedBlocks(t, f)
	}
}

// TestMarkdownGoSnippetsParse parses every ```go fenced snippet in the
// operator docs with go/parser — as a full file, or wrapped in a stub
// package and function body for fragments.
func TestMarkdownGoSnippetsParse(t *testing.T) {
	for _, f := range docFiles {
		for i, b := range fencedBlocks(t, f) {
			if b[0] != "go" {
				continue
			}
			src := b[1]
			fset := token.NewFileSet()
			if _, err := parser.ParseFile(fset, "snippet.go", src, 0); err == nil {
				continue
			}
			wrapped := "package p\nfunc _() {\n" + src + "\n}\n"
			if _, err := parser.ParseFile(fset, "snippet.go", wrapped, 0); err != nil {
				t.Errorf("%s: go snippet %d does not parse: %v\n%s", f, i, err, src)
			}
		}
	}
}

// cliFlags parses cmd/hiway/main.go and returns the flag names each run*
// function registers, keyed by subcommand (runSim → "sim", …). Parsing the
// real source keeps the docs check honest: a flag renamed in the CLI fails
// the docs test until the docs follow.
func cliFlags(t *testing.T) map[string]map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, filepath.Join("cmd", "hiway", "main.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	subFor := map[string]string{"runSim": "sim", "runLocal": "local", "runProv": "prov", "runInspect": "inspect", "runVerify": "verify", "runLoad": "load", "runElastic": "elastic", "runServe": "serve", "runPaper": "paper"}
	out := map[string]map[string]bool{}
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		sub, ok := subFor[fn.Name.Name]
		if !ok {
			continue
		}
		flags := map[string]bool{}
		ast.Inspect(fn, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			var nameArg ast.Expr
			switch sel.Sel.Name {
			case "String", "Bool", "Int", "Int64", "Float64":
				if len(call.Args) >= 1 {
					nameArg = call.Args[0]
				}
			case "Var":
				if len(call.Args) >= 2 {
					nameArg = call.Args[1]
				}
			}
			if lit, ok := nameArg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				flags[strings.Trim(lit.Value, `"`)] = true
			}
			return true
		})
		out[sub] = flags
	}
	for fn, sub := range subFor {
		if len(out[sub]) == 0 {
			t.Fatalf("found no flag registrations in %s", fn)
		}
	}
	return out
}

var flagToken = regexp.MustCompile(`^-([a-z][a-z0-9-]*)`)

// TestDocumentedCommandsUseRealFlags joins continuation lines of every
// `hiway <subcommand>` invocation inside a fenced block of the operator
// docs and checks each -flag token against the flags the CLI actually
// registers, so a removed or renamed flag fails the docs until they follow.
func TestDocumentedCommandsUseRealFlags(t *testing.T) {
	flags := cliFlags(t)
	for _, f := range docFiles {
		for _, b := range fencedBlocks(t, f) {
			// Join backslash continuations into single command lines.
			joined := strings.ReplaceAll(b[1], "\\\n", " ")
			for _, line := range strings.Split(joined, "\n") {
				fields := strings.Fields(line)
				sub := ""
				for i, tok := range fields {
					if (tok == "hiway" || strings.HasSuffix(tok, "/hiway")) && i+1 < len(fields) {
						sub = fields[i+1]
						fields = fields[i+2:]
						break
					}
				}
				if _, known := flags[sub]; !known {
					continue
				}
				for _, tok := range fields {
					m := flagToken.FindStringSubmatch(tok)
					if m == nil {
						continue
					}
					if !flags[sub][m[1]] {
						t.Errorf("%s: documented command uses unknown `hiway %s` flag -%s:\n  %s",
							f, sub, m[1], strings.TrimSpace(line))
					}
				}
			}
		}
	}
}

// TestFlagTablesUseRealFlags validates the flag reference tables: every
// backticked token that looks like a flag in README.md, OBSERVABILITY.md,
// or SERVICE.md must be registered by some hiway subcommand.
func TestFlagTablesUseRealFlags(t *testing.T) {
	flags := cliFlags(t)
	union := map[string]bool{}
	for _, set := range flags {
		for name := range set {
			union[name] = true
		}
	}
	ticked := regexp.MustCompile("`(-[a-z][a-z0-9-]*)[^`]*`")
	for _, f := range []string{"README.md", "OBSERVABILITY.md", "SERVICE.md"} {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ticked.FindAllStringSubmatch(string(raw), -1) {
			if !union[strings.TrimPrefix(m[1], "-")] {
				t.Errorf("%s: references flag %s, which no hiway subcommand registers", f, m[1])
			}
		}
	}
}

// assertExportedIdentifiersDocumented enforces godoc coverage on one
// internal package: every exported top-level declaration (and every
// exported method) must carry a doc comment.
func assertExportedIdentifiersDocumented(t *testing.T, pkgName string) {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, filepath.Join("internal", pkgName), func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg, ok := pkgs[pkgName]
	if !ok {
		t.Fatalf("package %s not found (got %v)", pkgName, pkgs)
	}
	undocumented := func(pos token.Pos, what string) {
		t.Errorf("internal/%s: %s at %s has no doc comment", pkgName, what, fset.Position(pos))
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Doc.Text() == "" {
					undocumented(d.Pos(), fmt.Sprintf("func %s", d.Name.Name))
				}
			case *ast.GenDecl:
				groupDoc := d.Doc.Text()
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() && groupDoc == "" && s.Doc.Text() == "" {
							undocumented(s.Pos(), fmt.Sprintf("type %s", s.Name.Name))
						}
					case *ast.ValueSpec:
						for _, name := range s.Names {
							if name.IsExported() && groupDoc == "" && s.Doc.Text() == "" && s.Comment.Text() == "" {
								undocumented(name.Pos(), fmt.Sprintf("value %s", name.Name))
							}
						}
					}
				}
			}
		}
	}
}

// TestObsExportedIdentifiersDocumented enforces godoc coverage on the
// observability package.
func TestObsExportedIdentifiersDocumented(t *testing.T) {
	assertExportedIdentifiersDocumented(t, "obs")
}

// TestServiceExportedIdentifiersDocumented enforces godoc coverage on the
// service tier, whose exported surface (Server, Routes, request/response
// types) is the HTTP API contract SERVICE.md documents.
func TestServiceExportedIdentifiersDocumented(t *testing.T) {
	assertExportedIdentifiersDocumented(t, "service")
}

// routeRow matches one endpoint-table row of SERVICE.md,
// e.g. "| `POST` | `/v1/workflows` | submit … |".
var routeRow = regexp.MustCompile("^\\|\\s*`(GET|POST|PUT|DELETE|PATCH)`\\s*\\|\\s*`([^`]+)`\\s*\\|")

// TestServiceRoutesDocumented cross-checks SERVICE.md's endpoint reference
// against service.Routes(), the table the HTTP mux is built from: every
// registered route must be documented, and every documented route must be
// registered — method and pattern both.
func TestServiceRoutesDocumented(t *testing.T) {
	raw, err := os.ReadFile("SERVICE.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		if m := routeRow.FindStringSubmatch(line); m != nil {
			documented[m[1]+" "+m[2]] = true
		}
	}
	for _, rt := range service.Routes() {
		key := rt.Method + " " + rt.Pattern
		if !documented[key] {
			t.Errorf("SERVICE.md: registered route %q is not in the endpoint reference", key)
		}
		delete(documented, key)
	}
	for key := range documented {
		t.Errorf("SERVICE.md: documents route %q, which the server does not register", key)
	}
}

// TestDocsCIJobRunsAllDocsTests keeps the CI docs job honest: the -run
// pattern it passes to go test must select every Test function defined in
// this file, so adding a docs test without wiring it into CI fails here.
func TestDocsCIJobRunsAllDocsTests(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`go test -run '([^']+)' -v \.`).FindStringSubmatch(string(ci))
	if m == nil {
		t.Fatal("ci.yml: docs job's `go test -run '…' -v .` invocation not found")
	}
	pattern, err := regexp.Compile(m[1])
	if err != nil {
		t.Fatalf("ci.yml: docs job -run pattern does not compile: %v", err)
	}
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "docs_test.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || !strings.HasPrefix(fn.Name.Name, "Test") {
			continue
		}
		if !pattern.MatchString(fn.Name.Name) {
			t.Errorf("ci.yml: docs job -run pattern %q does not select %s", m[1], fn.Name.Name)
		}
	}
}
