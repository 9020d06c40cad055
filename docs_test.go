package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// citingDocs are the documents whose code spans must name live code.
var citingDocs = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md", "bench/README.md"}

// designMaxLines caps DESIGN.md: it states the invariants in force and
// the tests that pin them, and the history of how they came to be lives
// in CHANGES.md.
const designMaxLines = 1000

// TestDocsNameLiveCode keeps the documents honest about the tree: every
// inline code span of citingDocs that names code must name something that
// exists in this module or in bench/. It checks
//
//   - `path/file.go`: some Go file's slash path equals it or ends in
//     "/" followed by it;
//   - `pkg.Name`, `pkg.Type.Member` and `Type.Member`, for pkg a package
//     of the tree (a main package goes by its directory) and Type a type
//     declared in it: the name is declared at the package's top level,
//     test files included, or is a method or field of one of its types,
//     and the member is a method or field of that type;
//   - `pkg.series_name`, a dotted lower-case name (a telemetry series or
//     a bench row) that has an underscore or is not a declaration: it
//     occurs in a string literal of the tree;
//   - a bare `Test…`, `Fuzz…` or `Benchmark…` name: some
//     package declares it.
//
// Anywhere in a document, inline code, fenced `go run` lines and prose
// alike, a cmd/<name>, ./cmd/<name>, examples/<name>, internal/<name> or
// ./internal/<name> names a directory of the tree.
//
// It parses the sources with go/parser alone, so a rename in code that
// the documents still cite fails here, not in a reader's search.
func TestDocsNameLiveCode(t *testing.T) {
	tree := parseTree(t)
	stale := map[string]bool{}
	for _, doc := range citingDocs {
		src, err := os.ReadFile(filepath.FromSlash(doc))
		if err != nil {
			t.Fatal(err)
		}
		text := string(src)
		if n := strings.Count(text, "\n"); doc == "DESIGN.md" && n > designMaxLines {
			t.Errorf("DESIGN.md has %d lines, over its cap of %d: move history to CHANGES.md", n, designMaxLines)
		}
		for _, c := range codeSpans(text) {
			for _, bad := range tree.unresolved(c.text) {
				t.Errorf("%s:%d: `%s` names %s, which is not in the tree", doc, c.line, c.text, bad)
			}
		}
		for _, m := range toolDir.FindAllStringSubmatchIndex(text, -1) {
			dir := text[m[2]:m[3]]
			if m[4] >= 0 {
				continue // a file in the directory, not the directory
			}
			if st, err := os.Stat(filepath.FromSlash(dir)); err == nil && st.IsDir() {
				continue
			}
			if _, ok := knownStaleDirs[doc+" "+dir]; ok {
				stale[doc+" "+dir] = true
				continue
			}
			t.Errorf("%s:%d: %s names no directory of the tree", doc, 1+strings.Count(text[:m[2]], "\n"), dir)
		}
	}
	for k := range knownStaleDirs {
		if !stale[k] {
			t.Errorf("knownStaleDirs lists %q, which no document cites any more: delete the entry", k)
		}
	}
}

// toolDir matches a command, example or internal package directory:
// cmd/<name>, ./cmd/<name>, examples/<name>, internal/<name> or
// ./internal/<name>, not inside a longer path, with the extension that
// follows when it names a file instead.
var toolDir = regexp.MustCompile(`(?:^|[^\w./-])(?:\./)?((?:cmd|examples|internal)/[\w-]+)(\.\w+)?`)

// knownStaleDirs are directory citations, keyed "<doc> <dir>", that a
// document this tree cannot edit alone still makes, each with why it
// stays. An entry no document makes any more fails the test, so each
// leaves with its citation.
var knownStaleDirs = map[string]string{
	"bench/README.md cmd/benchjson": "bench/ changes only together with the benchmark; ROADMAP carries the fix",
}

type span struct {
	line int
	text string
}

var inlineCode = regexp.MustCompile("`([^`]+)`")

// codeSpans returns the inline code spans of a Markdown text, outside
// fenced blocks, each with the line it starts on. A span may wrap.
func codeSpans(text string) []span {
	var out []span
	lines := strings.SplitAfter(text, "\n")
	fenced := false
	var para strings.Builder
	start := 0
	flush := func() {
		s := para.String()
		for _, m := range inlineCode.FindAllStringSubmatchIndex(s, -1) {
			out = append(out, span{
				line: start + strings.Count(s[:m[0]], "\n"),
				text: strings.Join(strings.Fields(s[m[2]:m[3]]), " "),
			})
		}
		para.Reset()
	}
	for i, l := range lines {
		if strings.HasPrefix(strings.TrimSpace(l), "```") {
			flush()
			fenced = !fenced
			continue
		}
		if fenced {
			continue
		}
		if para.Len() == 0 {
			start = i + 1
		}
		para.WriteString(l)
		if strings.TrimSpace(l) == "" {
			flush()
		}
	}
	flush()
	return out
}

// tree is what the documents may cite, gathered from every Go file.
type tree struct {
	files      []string                   // slash paths from the repository root
	decls      map[string]map[string]bool // package → top-level names
	members    map[string]map[string]bool // "pkg.Type" → methods and fields, a key per struct or interface
	pkgMembers map[string]map[string]bool // package → methods and fields of its types
	strs       []string                   // string literals
}

func parseTree(t *testing.T) *tree {
	t.Helper()
	tr := &tree{
		decls:      map[string]map[string]bool{},
		members:    map[string]map[string]bool{},
		pkgMembers: map[string]map[string]bool{},
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		p = filepath.ToSlash(p)
		tr.files = append(tr.files, p)
		tr.add(packageKey(f, p), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// packageKey is the name the documents use for f's package: its own
// name without _test, or its directory's for a main package.
func packageKey(f *ast.File, file string) string {
	name := strings.TrimSuffix(f.Name.Name, "_test")
	if name == "main" {
		name = path.Base(path.Dir(file))
	}
	return name
}

func (tr *tree) add(pkg string, f *ast.File) {
	if tr.decls[pkg] == nil {
		tr.decls[pkg] = map[string]bool{}
		tr.pkgMembers[pkg] = map[string]bool{}
	}
	member := func(typ, name string) {
		key := pkg + "." + typ
		if tr.members[key] == nil {
			tr.members[key] = map[string]bool{}
		}
		tr.members[key][name] = true
		tr.pkgMembers[pkg][name] = true
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				tr.decls[pkg][d.Name.Name] = true
				continue
			}
			if typ := receiverType(d.Recv.List[0].Type); typ != "" {
				member(typ, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						tr.decls[pkg][n.Name] = true
					}
				case *ast.TypeSpec:
					typ := s.Name.Name
					tr.decls[pkg][typ] = true
					var fields []*ast.Field
					switch u := s.Type.(type) {
					case *ast.StructType:
						fields = u.Fields.List
					case *ast.InterfaceType:
						fields = u.Methods.List
					default:
						continue // an alias or a named non-struct type: members unchecked
					}
					if tr.members[pkg+"."+typ] == nil {
						tr.members[pkg+"."+typ] = map[string]bool{}
					}
					for _, fl := range fields {
						for _, n := range fl.Names {
							member(typ, n.Name)
						}
						if len(fl.Names) == 0 {
							member(typ, receiverType(fl.Type)) // embedded: its type name
						}
					}
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if s, err := strconv.Unquote(lit.Value); err == nil {
				tr.strs = append(tr.strs, s)
			}
		}
		return true
	})
}

// receiverType is the type name under pointers, qualifiers and type
// arguments.
func receiverType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return receiverType(e.X)
	case *ast.IndexExpr:
		return receiverType(e.X)
	case *ast.IndexListExpr:
		return receiverType(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.Ident:
		return e.Name
	}
	return ""
}

var (
	goFile     = regexp.MustCompile(`(?:[\w.-]+/)*[\w-]+\.go\b`)
	qualified  = regexp.MustCompile(`(?:^|[^\w.])([a-z][a-z0-9]*)\.(\w+)((?:\.\w+)*)`)
	typeMember = regexp.MustCompile(`(?:^|[^\w.*])([A-Z]\w*)\.([A-Za-z_]\w*)`)
	testName   = regexp.MustCompile(`(?:^|[^\w.])((?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*)`)
	series     = regexp.MustCompile(`^[a-z0-9_]+(?:\.[a-z0-9_]+)*$`)
)

// unresolved returns the citations in a code span that name nothing.
func (tr *tree) unresolved(s string) []string {
	var bad []string
	for _, p := range goFile.FindAllString(s, -1) {
		p = strings.TrimPrefix(p, "./")
		found := false
		for _, f := range tr.files {
			if f == p || strings.HasSuffix(f, "/"+p) {
				found = true
				break
			}
		}
		if !found {
			bad = append(bad, "file "+p)
		}
	}
	s = goFile.ReplaceAllString(s, " ")

	for _, m := range qualified.FindAllStringSubmatch(s, -1) {
		pkg, name, rest := m[1], m[2], strings.TrimPrefix(m[3], ".")
		decls, ok := tr.decls[pkg]
		if !ok {
			continue // another module's package, or prose
		}
		full := pkg + "." + name
		if rest != "" {
			full += "." + rest
		}
		lower := series.MatchString(full)
		switch {
		case lower && strings.Contains(full, "_"):
			if !tr.inString(full) {
				bad = append(bad, "series "+full)
			}
		case decls[name]:
			member, _, _ := strings.Cut(rest, ".")
			if members := tr.members[pkg+"."+name]; member != "" && members != nil && !members[member] {
				bad = append(bad, pkg+"."+name+"."+member)
			}
		case tr.pkgMembers[pkg][name]:
			// A method or field cited by its package alone.
		case !lower || !tr.inString(full):
			bad = append(bad, full)
		}
	}
	for _, m := range typeMember.FindAllStringSubmatch(s, -1) {
		typ, member := m[1], m[2]
		isType, found := false, false
		for pkg := range tr.decls {
			members, ok := tr.members[pkg+"."+typ]
			isType, found = isType || ok, found || members[member]
		}
		if isType && !found {
			bad = append(bad, typ+"."+member)
		}
	}
	for _, m := range testName.FindAllStringSubmatch(s, -1) {
		found := false
		for _, decls := range tr.decls {
			found = found || decls[m[1]]
		}
		if !found {
			bad = append(bad, m[1])
		}
	}
	return bad
}

// inString reports whether a series name occurs in a string literal, or
// ends in one that starts with a dot (a suffix appended to a layer).
func (tr *tree) inString(name string) bool {
	for _, s := range tr.strs {
		if strings.Contains(s, name) || strings.HasPrefix(s, ".") && strings.HasSuffix(name, s) {
			return true
		}
	}
	return false
}
