package archtest

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"sync"
)

// A tree is the repository as the rules see it: every .go file under the
// root, parsed once with its comments, plus any text file a rule reads. An
// overlay (tree.with) is a copy with some files replaced; the disk is only
// ever read.
type tree struct {
	root   string // absolute path of the directory holding go.mod
	module string // the module path go.mod declares
	fset   *token.FileSet
	files  []*file           // sorted by path
	text   map[string]string // overlaid non-Go files, by path
}

type file struct {
	path  string // slash-separated, relative to the root
	src   string
	ast   *ast.File
	nodes []nodeAt // every node of ast.Decls, depth first
}

type nodeAt struct {
	n  ast.Node
	fn string // the top-level function the node lies in, "" if none
}

func (f *file) test() bool { return strings.HasSuffix(f.path, "_test.go") }

// head is the checkout the tests run in, loaded once per process.
var head = sync.OnceValues(load)

func load() (*tree, error) {
	root, err := filepath.Abs("../..") // go test runs in internal/archtest
	if err != nil {
		return nil, err
	}
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	first, _, _ := strings.Cut(string(mod), "\n")
	module, ok := strings.CutPrefix(strings.TrimSpace(first), "module ")
	if !ok {
		return nil, fmt.Errorf("%s/go.mod does not start with a module line", root)
	}
	t := &tree{root: root, module: module, fset: token.NewFileSet(), text: map[string]string{}}
	// The walk skips what the go tool skips: testdata and directories whose
	// names start with "." or "_".
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		f, err := t.parse(filepath.ToSlash(rel), string(src))
		if err != nil {
			return err
		}
		t.files = append(t.files, f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	slices.SortFunc(t.files, func(a, b *file) int { return strings.Compare(a.path, b.path) })
	return t, nil
}

func (t *tree) parse(p, src string) (*file, error) {
	a, err := parser.ParseFile(t.fset, p, src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	f := &file{path: p, src: src, ast: a}
	for _, d := range a.Decls {
		fn := ""
		if fd, ok := d.(*ast.FuncDecl); ok {
			fn = funcName(fd)
		}
		ast.Inspect(d, func(n ast.Node) bool {
			if n != nil {
				f.nodes = append(f.nodes, nodeAt{n, fn})
			}
			return true
		})
	}
	return f, nil
}

// goFiles returns the parsed files s selects, in path order.
func (t *tree) goFiles(s scope) []*file {
	var out []*file
	for _, f := range t.files {
		if s.has(f.path) {
			out = append(out, f)
		}
	}
	return out
}

// read returns a file's contents, overlay first.
func (t *tree) read(p string) (string, error) {
	if strings.HasSuffix(p, ".go") {
		if i := t.index(p); i >= 0 {
			return t.files[i].src, nil
		}
		return "", fs.ErrNotExist
	}
	if s, ok := t.text[p]; ok {
		return s, nil
	}
	b, err := os.ReadFile(filepath.Join(t.root, filepath.FromSlash(p)))
	return string(b), err
}

func (t *tree) index(p string) int {
	i, ok := slices.BinarySearchFunc(t.files, p, func(f *file, p string) int { return strings.Compare(f.path, p) })
	if !ok {
		return -1
	}
	return i
}

// An edit replaces old, which must occur exactly once, with new in the file
// at path. An empty old appends new, creating the file if there is none.
type edit struct{ path, old, new string }

// with returns a copy of t with the edits applied; t itself is unchanged.
func (t *tree) with(edits ...edit) (*tree, error) {
	out := *t
	out.files = slices.Clone(t.files)
	out.text = maps.Clone(t.text)
	for _, e := range edits {
		src, err := out.read(e.path)
		if err != nil && !(errors.Is(err, fs.ErrNotExist) && e.old == "") {
			return nil, err
		}
		if e.old == "" {
			src += e.new
		} else if n := strings.Count(src, e.old); n != 1 {
			return nil, fmt.Errorf("%s: %q occurs %d times, want 1", e.path, e.old, n)
		} else {
			src = strings.Replace(src, e.old, e.new, 1)
		}
		if !strings.HasSuffix(e.path, ".go") {
			out.text[e.path] = src
			continue
		}
		f, err := out.parse(e.path, src)
		if err != nil {
			return nil, err
		}
		if i := out.index(e.path); i >= 0 {
			out.files[i] = f
		} else {
			out.files = append(out.files, f)
			slices.SortFunc(out.files, func(a, b *file) int { return strings.Compare(a.path, b.path) })
		}
	}
	return &out, nil
}

// A scope selects files by path. An entry of in or out is a package
// directory ("internal/sim"), a subtree ("bench/...") or one file
// ("internal/pfs/pfs.go", "README.md").
type scope struct {
	in    []string // none selects every file
	out   []string
	tests bool // _test.go files count too
}

func (s scope) has(p string) bool {
	if !s.tests && strings.HasSuffix(p, "_test.go") {
		return false
	}
	return (len(s.in) == 0 || matchesAny(s.in, p)) && !matchesAny(s.out, p)
}

func matchesAny(pats []string, p string) bool {
	for _, pat := range pats {
		if dir, ok := strings.CutSuffix(pat, "/..."); ok {
			if strings.HasPrefix(p, dir+"/") {
				return true
			}
		} else if pat == p || pat == path.Dir(p) {
			return true
		}
	}
	return false
}

// walk calls visit for every node of f, with the name of the top-level
// function it lies in ("" outside any), so a call in a closure is credited
// to the function that holds the closure.
func walk(f *file, visit func(n ast.Node, fn string)) {
	for _, at := range f.nodes {
		visit(at.n, at.fn)
	}
}

// funcName is "Name" for a function and "(Recv).Name" for a method.
func funcName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	return "(" + expr(d.Recv.List[0].Type) + ")." + d.Name.Name
}

// expr renders x compactly, as it reads in source, for rules to match with a
// regular expression. Function and composite-literal bodies are elided.
func expr(x ast.Expr) string {
	switch x := x.(type) {
	case nil:
		return ""
	case *ast.Ident:
		return x.Name
	case *ast.BasicLit:
		return x.Value
	case *ast.SelectorExpr:
		return expr(x.X) + "." + x.Sel.Name
	case *ast.StarExpr:
		return "*" + expr(x.X)
	case *ast.ParenExpr:
		return "(" + expr(x.X) + ")"
	case *ast.UnaryExpr:
		return x.Op.String() + expr(x.X)
	case *ast.BinaryExpr:
		return expr(x.X) + " " + x.Op.String() + " " + expr(x.Y)
	case *ast.KeyValueExpr:
		return expr(x.Key) + ": " + expr(x.Value)
	case *ast.IndexExpr:
		return expr(x.X) + "[" + expr(x.Index) + "]"
	case *ast.IndexListExpr:
		return expr(x.X) + "[" + exprs(x.Indices) + "]"
	case *ast.SliceExpr:
		return expr(x.X) + "[" + expr(x.Low) + ":" + expr(x.High) + "]"
	case *ast.TypeAssertExpr:
		return expr(x.X) + ".(" + expr(x.Type) + ")"
	case *ast.CallExpr:
		return expr(x.Fun) + "(" + exprs(x.Args) + ")"
	case *ast.ArrayType:
		return "[" + expr(x.Len) + "]" + expr(x.Elt)
	case *ast.MapType:
		return "map[" + expr(x.Key) + "]" + expr(x.Value)
	case *ast.ChanType:
		return "chan " + expr(x.Value)
	case *ast.Ellipsis:
		return "..." + expr(x.Elt)
	case *ast.FuncType:
		return "func(" + params(x.Params) + ")"
	case *ast.FuncLit:
		return "func(" + params(x.Type.Params) + ") {…}"
	case *ast.CompositeLit:
		return expr(x.Type) + "{…}"
	case *ast.StructType:
		return "struct{…}"
	case *ast.InterfaceType:
		return "interface{…}"
	}
	return "…"
}

func exprs(xs []ast.Expr) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = expr(x)
	}
	return strings.Join(s, ", ")
}

// params renders a parameter list's types, one per parameter.
func params(fl *ast.FieldList) string {
	if fl == nil {
		return ""
	}
	var s []string
	for _, f := range fl.List {
		for range max(1, len(f.Names)) {
			s = append(s, expr(f.Type))
		}
	}
	return strings.Join(s, ", ")
}
