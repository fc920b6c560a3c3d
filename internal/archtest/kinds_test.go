package archtest

import (
	"fmt"
	"go/ast"
	"go/token"
	"maps"
	"path"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// A hit is one node a finder matched: where, in which top-level function,
// and the node rendered as text.
type hit struct{ pos, fn, text string }

func (h hit) String() string { return h.pos + ": " + h.text }

// A finder reports the nodes of one file that match it. Finders look at
// syntax only, so comments and string literals never match.
type finder func(f *file, emit func(pos token.Pos, fn, text string))

// find runs f over the files s selects.
func (t *tree) find(s scope, f finder) []hit {
	var hits []hit
	for _, file := range t.goFiles(s) {
		f(file, func(pos token.Pos, fn, text string) {
			hits = append(hits, hit{fmt.Sprintf("%s:%d", file.path, t.fset.Position(pos).Line), fn, text})
		})
	}
	return hits
}

// nodes is a finder over the nodes of type T that match reports on.
func nodes[T ast.Node](match func(T) (string, bool)) finder {
	return func(f *file, emit func(token.Pos, string, string)) {
		walk(f, func(n ast.Node, fn string) {
			if x, ok := n.(T); ok {
				if text, ok := match(x); ok {
					emit(n.Pos(), fn, text)
				}
			}
		})
	}
}

// imports finds imports whose path matches re.
func imports(re string) finder {
	r := regexp.MustCompile(re)
	return nodes(func(s *ast.ImportSpec) (string, bool) {
		p, _ := strconv.Unquote(s.Path.Value)
		return "import " + s.Path.Value, r.MatchString(p)
	})
}

// chans finds channel types.
func chans() finder {
	return nodes(func(c *ast.ChanType) (string, bool) { return expr(c), true })
}

// goStmts finds go statements.
func goStmts() finder {
	return nodes(func(g *ast.GoStmt) (string, bool) { return "go " + expr(g.Call), true })
}

// idents finds identifiers whose name matches re: declared, used, or a
// field or selector name.
func idents(re string) finder {
	r := regexp.MustCompile(re)
	return nodes(func(id *ast.Ident) (string, bool) { return id.Name, r.MatchString(id.Name) })
}

// sels finds selector expressions, such as sync.Pool, rendered as text.
func sels(re string) finder {
	r := regexp.MustCompile(re)
	return nodes(func(s *ast.SelectorExpr) (string, bool) { return expr(s), r.MatchString(expr(s)) })
}

// mapTypes finds map types, such as map[int64][]byte, rendered as text.
func mapTypes(re string) finder {
	r := regexp.MustCompile(re)
	return nodes(func(m *ast.MapType) (string, bool) { return expr(m), r.MatchString(expr(m)) })
}

// calls finds calls whose callee, rendered as text ("sim.NewEngine",
// "x.f.Do", "make"), matches fun and whose arguments, rendered and joined by
// ", ", match args; an empty args matches any.
func calls(fun, args string) finder {
	rf, ra := regexp.MustCompile(fun), regexp.MustCompile(args)
	return nodes(func(c *ast.CallExpr) (string, bool) {
		return expr(c), rf.MatchString(expr(c.Fun)) && ra.MatchString(exprs(c.Args))
	})
}

// decls finds declarations by key: "Name(T1, T2)" for a function,
// "(Recv).Name(T1, T2)" for a method (parameter types only, receiver and
// parameter names dropped) and "type Name" for a type, at any depth.
func decls(re string) finder {
	r := regexp.MustCompile(re)
	return nodes(func(n ast.Node) (string, bool) {
		var key string
		switch d := n.(type) {
		case *ast.FuncDecl:
			key = funcName(d) + "(" + params(d.Type.Params) + ")"
		case *ast.TypeSpec:
			key = "type " + d.Name.Name
		default:
			return "", false
		}
		return key, r.MatchString(key)
	})
}

// fieldDecls finds struct fields by key "Type.field", at any depth.
func fieldDecls(re string) finder {
	r := regexp.MustCompile(re)
	return func(f *file, emit func(token.Pos, string, string)) {
		walk(f, func(n ast.Node, fn string) {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return
			}
			for _, fld := range st.Fields.List {
				for _, name := range fld.Names {
					if key := ts.Name.Name + "." + name.Name; r.MatchString(key) {
						emit(name.Pos(), fn, key)
					}
				}
			}
		})
	}
}

// pkgMaps finds package-level variables that hold a map.
func pkgMaps() finder {
	return func(f *file, emit func(token.Pos, string, string)) {
		for _, d := range f.ast.Decls {
			g, ok := d.(*ast.GenDecl)
			if !ok || g.Tok != token.VAR {
				continue
			}
			for _, spec := range g.Specs {
				vs := spec.(*ast.ValueSpec)
				isMap := isMapExpr(vs.Type)
				for _, v := range vs.Values {
					isMap = isMap || isMapExpr(v)
				}
				if !isMap {
					continue
				}
				text := "var " + vs.Names[0].Name
				if vs.Type != nil {
					text += " " + expr(vs.Type)
				}
				if len(vs.Values) > 0 {
					text += " = " + exprs(vs.Values)
				}
				emit(vs.Pos(), "", text)
			}
		}
	}
}

// isMapExpr reports whether x is a map type, a map literal or make(map...).
func isMapExpr(x ast.Expr) bool {
	switch x := x.(type) {
	case *ast.MapType:
		return true
	case *ast.CompositeLit:
		return isMapExpr(x.Type)
	case *ast.CallExpr:
		return expr(x.Fun) == "make" && len(x.Args) > 0 && isMapExpr(x.Args[0])
	}
	return false
}

// unless drops the hits of f whose text matches re.
func unless(f finder, re string) finder {
	r := regexp.MustCompile(re)
	return func(file *file, emit func(token.Pos, string, string)) {
		f(file, func(pos token.Pos, fn, text string) {
			if !r.MatchString(text) {
				emit(pos, fn, text)
			}
		})
	}
}

// inTests keeps the matches of f in _test.go files.
func inTests(f finder) finder {
	return func(file *file, emit func(token.Pos, string, string)) {
		if file.test() {
			f(file, emit)
		}
	}
}

// inFile keeps the matches of f in the file at path p.
func inFile(p string, f finder) finder {
	return func(file *file, emit func(token.Pos, string, string)) {
		if file.path == p {
			f(file, emit)
		}
	}
}

// A check is a rule kind: it returns what violates the rule over the files
// the row's scope selects, nothing when the rule holds.
type check func(t *tree, s scope) []string

// forbid: no finder matches anything.
func forbid(fs ...finder) check {
	return func(t *tree, s scope) []string {
		var v []string
		for _, f := range fs {
			for _, h := range t.find(s, f) {
				v = append(v, h.String())
			}
		}
		return v
	}
}

// count: f matches exactly n times.
func count(n int, f finder) check {
	return func(t *tree, s scope) []string {
		hits := t.find(s, f)
		if len(hits) == n {
			return nil
		}
		v := []string{fmt.Sprintf("%d matches, want %d", len(hits), n)}
		for _, h := range hits {
			v = append(v, h.String())
		}
		return v
	}
}

// sites: the enclosing functions of f's matches, as "path: fn", are exactly
// want (a function with two matches is listed twice).
func sites(f finder, want ...string) check {
	return func(t *tree, s scope) []string {
		var got []string
		for _, h := range t.find(s, f) {
			file, _, _ := strings.Cut(h.pos, ":")
			got = append(got, file+": "+h.fn)
		}
		slices.Sort(got)
		if slices.Equal(got, want) {
			return nil
		}
		return []string{fmt.Sprintf("called from %q, want %q", got, want)}
	}
}

// fields: the struct type typ has exactly the fields want, in order.
func fields(typ string, want ...string) check {
	return func(t *tree, s scope) []string {
		var v []string
		found := false
		for _, h := range t.goFiles(s) {
			ast.Inspect(h.ast, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok || ts.Name.Name != typ {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				found = true
				var got []string
				for _, f := range st.Fields.List {
					if len(f.Names) == 0 {
						got = append(got, expr(f.Type))
					}
					for _, n := range f.Names {
						got = append(got, n.Name)
					}
				}
				if !slices.Equal(got, want) {
					v = append(v, fmt.Sprintf("%s: %s has fields %q, want %q", h.path, typ, got, want))
				}
				return false
			})
		}
		if !found {
			v = append(v, "no struct type "+typ)
		}
		return v
	}
}

// layers: each argument is one level of internal packages, lowest first,
// names separated by spaces; a package's non-test files import only
// packages of lower levels, and every internal package has a level.
func layers(levels ...string) check {
	level := map[string]int{}
	for i, l := range levels {
		for _, p := range strings.Fields(l) {
			level[p] = i
		}
	}
	return func(t *tree, s scope) []string {
		var v []string
		for _, f := range t.goFiles(s) {
			pkg := strings.TrimPrefix(path.Dir(f.path), "internal/")
			lp, ok := level[pkg]
			if !ok {
				v = append(v, f.path+": package internal/"+pkg+" has no level")
				continue
			}
			for _, imp := range f.ast.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				q, ok := strings.CutPrefix(p, t.module+"/internal/")
				if !ok {
					continue
				}
				if lq, ok := level[q]; !ok || lq >= lp {
					v = append(v, fmt.Sprintf("%s:%d: internal/%s (level %d) imports internal/%s (level %d)",
						f.path, t.fset.Position(imp.Pos()).Line, pkg, lp, q, lq))
				}
			}
		}
		return v
	}
}

var (
	fuzzTarget = regexp.MustCompile(`\./([\w./-]+):(Fuzz\w+)`)
	benchLine  = regexp.MustCompile(`-bench '([^']*)'.*\s(\.[\w./-]*)\s*$`)
)

// smokeFuzz: every fuzz target in a test file is in the ci workflow's
// "Fuzz smoke" loop, as ./dir:FuzzName.
func smokeFuzz(ci string) check {
	return func(t *tree, s scope) []string {
		yml, err := t.read(ci)
		if err != nil {
			return []string{err.Error()}
		}
		listed := map[string]bool{}
		for _, m := range fuzzTarget.FindAllStringSubmatch(step(yml, "Fuzz smoke"), -1) {
			listed[m[1]+":"+m[2]] = true
		}
		var v []string
		for _, f := range testFuncs(t, s, "Fuzz") {
			if !listed[f.dir+":"+f.name] {
				v = append(v, fmt.Sprintf("%s: %s is not in the Fuzz smoke loop of %s", f.path, f.name, ci))
			}
		}
		return v
	}
}

// smokeBench: every benchmark below the root matches one of its package's
// -bench patterns in the ci workflow's "Bench smoke" step.
func smokeBench(ci string) check {
	return func(t *tree, s scope) []string {
		yml, err := t.read(ci)
		if err != nil {
			return []string{err.Error()}
		}
		patterns := map[string][]*regexp.Regexp{}
		for _, line := range strings.Split(step(yml, "Bench smoke"), "\n") {
			if m := benchLine.FindStringSubmatch(line); m != nil {
				// go test matches a benchmark's top-level name against the
				// pattern's first slash-separated element.
				first, _, _ := strings.Cut(m[1], "/")
				r, err := regexp.Compile(first)
				if err != nil {
					return []string{fmt.Sprintf("%s: Bench smoke pattern %q: %v", ci, m[1], err)}
				}
				pkg := path.Clean(m[2])
				patterns[pkg] = append(patterns[pkg], r)
			}
		}
		var v []string
		for _, f := range testFuncs(t, s, "Benchmark") {
			if f.dir != "." && !slices.ContainsFunc(patterns[f.dir], func(r *regexp.Regexp) bool { return r.MatchString(f.name) }) {
				v = append(v, fmt.Sprintf("%s: %s matches no Bench smoke pattern for ./%s in %s", f.path, f.name, f.dir, ci))
			}
		}
		return v
	}
}

type testFunc struct{ path, dir, name string }

// testFuncs lists the top-level functions of the selected test files whose
// names start with prefix.
func testFuncs(t *tree, s scope, prefix string) []testFunc {
	var out []testFunc
	for _, f := range t.goFiles(s) {
		if !f.test() {
			continue
		}
		for _, d := range f.ast.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, prefix) {
				out = append(out, testFunc{f.path, path.Dir(f.path), fd.Name.Name})
			}
		}
	}
	return out
}

// step returns the lines of the workflow step whose name starts with name:
// its "- name:" line and every line indented deeper than its dash.
func step(yml, name string) string {
	indent := func(l string) int { return len(l) - len(strings.TrimLeft(l, " ")) }
	lines := strings.Split(yml, "\n")
	for i, l := range lines {
		if !strings.HasPrefix(strings.TrimLeft(l, " "), "- name: "+name) {
			continue
		}
		j := i + 1
		for j < len(lines) && (strings.TrimSpace(lines[j]) == "" || indent(lines[j]) > indent(l)) {
			j++
		}
		return strings.Join(lines[i:j], "\n")
	}
	return ""
}

var (
	designHeading = regexp.MustCompile(`(?m)^## (\d+[a-z]?)\. `)
	// A reference may break across a line, comment marker included.
	designRef = regexp.MustCompile("DESIGN\\.md`?(?:\\s|//)*§(\\d+[a-z]?)")
)

// sections returns the section numbers DESIGN.md has a "## N." heading for.
func (t *tree) sections() (map[string]bool, error) {
	d, err := t.read("DESIGN.md")
	if err != nil {
		return nil, err
	}
	have := map[string]bool{}
	for _, m := range designHeading.FindAllStringSubmatch(d, -1) {
		have[m[1]] = true
	}
	return have, nil
}

// designRefs: every "DESIGN.md §N" in the selected Go files' source and in
// the selected non-Go files names a "## N." heading of DESIGN.md, and there
// is at least one.
func designRefs() check {
	return func(t *tree, s scope) []string {
		have, err := t.sections()
		if err != nil {
			return []string{err.Error()}
		}
		texts := map[string]string{}
		for _, f := range t.goFiles(s) {
			texts[f.path] = f.src
		}
		for _, p := range s.in {
			if !strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "/...") && path.Ext(p) != "" {
				src, err := t.read(p)
				if err != nil {
					return []string{err.Error()}
				}
				texts[p] = src
			}
		}
		var v []string
		refs := 0
		for _, p := range slices.Sorted(maps.Keys(texts)) {
			for _, m := range designRef.FindAllStringSubmatchIndex(texts[p], -1) {
				refs++
				if n := texts[p][m[2]:m[3]]; !have[n] {
					line := 1 + strings.Count(texts[p][:m[0]], "\n")
					v = append(v, fmt.Sprintf("%s:%d: DESIGN.md §%s has no \"## %s.\" heading", p, line, n, n))
				}
			}
		}
		if refs == 0 {
			v = append(v, "no DESIGN.md § reference found")
		}
		return v
	}
}
