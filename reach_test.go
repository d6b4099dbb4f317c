package headroom_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllow names the declarations no root reaches that stay on purpose,
// each with its reason. It holds at most reachAllowMax entries, and an entry
// a root reaches fails the test as stale, so the list only shrinks.
var reachAllow = map[string]string{
	"headroom.ErrTransient":   "library API: README \"Failure semantics\" tells callers to match it with errors.Is",
	"headroom.EachRecord":     "library API: README \"Record sources\" adapts a per-record callback with it",
	"headroom.NewSynthSource": "library API: README Quickstart step 3 and \"Record sources\" replay a synthetic workload with it",
	"headroom.BuildProfile":   "library API: README Quickstart step 3 builds the synthetic workload with it",
	"leakcheck.Check":         "test support: the package exists for the test files that call it",
	"jobcache.Cache.Get":      "ROADMAP item 2b's admission hook: a cache lookup without joining a flight",
}

const reachAllowMax = 8

// TestReachable type-checks every non-test package of the module, its
// examples and cmd/capbench, and fails on each package-level declaration or
// method that no main, init or blank-var root reaches.
func TestReachable(t *testing.T) {
	if len(reachAllow) > reachAllowMax {
		t.Errorf("allowlist has %d entries, at most %d allowed", len(reachAllow), reachAllowMax)
	}
	rep, err := analyzeReach([]string{".", "cmd/capbench"}, reachAllow)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d declarations: %d reached, %d allowlisted, %d unreached (%d lines)",
		rep.decls, rep.decls-len(rep.allowed)-len(rep.unreached), len(rep.allowed), len(rep.unreached), rep.lines)
	for _, a := range rep.allowed {
		t.Logf("allowlisted %s: %s", a, reachAllow[strings.Fields(a)[1]])
	}
	for _, s := range rep.stale {
		t.Errorf("stale allowlist entry %s", s)
	}
	for _, u := range rep.unreached {
		t.Errorf("unreached: %s", u)
	}
}

// reachReport is what analyzeReach finds. Declarations are spelled
// "file:line identifier", file relative to the first listed directory.
type reachReport struct {
	decls     int      // package-level declarations and methods of the program
	unreached []string // in file order
	lines     int      // lines the unreached declarations span, doc comments included
	allowed   []string // allowlisted declarations, unreached as they should be
	stale     []string // allowlist entries a root reaches, or that name nothing
}

// listedPkg is the part of `go list -json` the analysis reads.
type listedPkg struct {
	ImportPath, Name, Dir, Export string
	GoFiles                       []string
	Standard                      bool
	Error                         *struct{ Err string }
}

// reachDecl is one node of the graph: a package-level declaration or a
// method, with the program's declarations its syntax uses.
type reachDecl struct {
	name  string // pkg.Name or pkg.Type.Method; a main package is spelled by its directory
	pos   token.Position
	lines int
	obj   types.Object
	root  bool
	syn   ast.Node
	uses  []*reachDecl
}

// analyzeReach lists the packages of each directory (the first is the
// module root), type-checks the non-standard ones from source against the
// standard library's export data, and floods the use graph from the roots:
// every main and init function, every blank package-level var, and each
// method of a reached type that satisfies an interface of the program or
// the standard library (Unwrap, Is and As always: errors calls them through
// unnamed interfaces). The allowlist is checked for staleness, then added to
// the roots.
func analyzeReach(dirs []string, allow map[string]string) (*reachReport, error) {
	listed := map[string]*listedPkg{}
	var order []string
	for _, dir := range dirs {
		pkgs, err := goListDeps(dir)
		if err != nil {
			return nil, err
		}
		for _, p := range pkgs {
			if p.Error != nil {
				return nil, fmt.Errorf("go list %s: %s", p.ImportPath, p.Error.Err)
			}
			if listed[p.ImportPath] == nil {
				listed[p.ImportPath] = p
				order = append(order, p.ImportPath)
			}
		}
	}
	base, err := filepath.Abs(dirs[0])
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if p := listed[path]; p != nil && p.Export != "" {
			return os.Open(p.Export)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	checked := map[string]*types.Package{}
	files := map[string][]*ast.File{}
	var load func(path string) (*types.Package, error)
	load = func(path string) (*types.Package, error) {
		if pkg, ok := checked[path]; ok {
			return pkg, nil
		}
		p := listed[path]
		if p == nil {
			return nil, fmt.Errorf("import %s: not listed", path)
		}
		if p.Standard {
			pkg, err := std.Import(path)
			checked[path] = pkg
			return pkg, err
		}
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files[path] = append(files[path], f)
		}
		conf := types.Config{Importer: importerFunc(load)}
		pkg, err := conf.Check(path, fset, files[path], info)
		checked[path] = pkg
		return pkg, err
	}
	for _, path := range order {
		if _, err := load(path); err != nil {
			return nil, err
		}
	}

	// Nodes.
	decls := map[types.Object]*reachDecl{}
	var all []*reachDecl
	add := func(pkg *listedPkg, id *ast.Ident, syn, span ast.Node, doc *ast.CommentGroup) *reachDecl {
		obj := info.Defs[id]
		if obj == nil {
			return nil
		}
		start := span.Pos()
		if doc != nil {
			start = doc.Pos()
		}
		pos := fset.Position(id.Pos())
		if rel, err := filepath.Rel(base, pos.Filename); err == nil {
			pos.Filename = filepath.ToSlash(rel)
		}
		d := &reachDecl{
			name:  reachName(pkg, obj),
			pos:   pos,
			lines: fset.Position(span.End()).Line - fset.Position(start).Line + 1,
			obj:   obj,
			root:  id.Name == "_",
			syn:   syn,
		}
		decls[obj] = d
		all = append(all, d)
		return d
	}
	for _, path := range order {
		pkg := listed[path]
		for _, f := range files[path] {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					d := add(pkg, decl.Name, decl, decl, decl.Doc)
					if decl.Recv == nil && (decl.Name.Name == "init" || decl.Name.Name == "main" && pkg.Name == "main") {
						d.root = true
					}
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						span, doc := ast.Node(spec), (*ast.CommentGroup)(nil)
						if !decl.Lparen.IsValid() {
							span, doc = decl, decl.Doc
						}
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							if doc == nil {
								doc = spec.Doc
							}
							add(pkg, spec.Name, spec, span, doc)
						case *ast.ValueSpec:
							if doc == nil {
								doc = spec.Doc
							}
							for _, id := range spec.Names {
								add(pkg, id, spec, span, doc)
							}
						}
					}
				}
			}
		}
	}

	// Edges: every program declaration a node's syntax names.
	for _, d := range all {
		ast.Inspect(d.syn, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if u := decls[reachOrigin(info.Uses[id])]; u != nil && u != d {
					d.uses = append(d.uses, u)
				}
			}
			return true
		})
	}

	// Interfaces a method may be called through, indexed by method name.
	ifaces := map[string][]*types.Interface{}
	addIface := func(t types.Type) {
		it, ok := t.(*types.Interface)
		if !ok || !it.IsMethodSet() {
			return
		}
		for i := range it.NumMethods() {
			name := it.Method(i).Name()
			ifaces[name] = append(ifaces[name], it)
		}
	}
	addIface(types.Universe.Lookup("error").Type().Underlying())
	for _, path := range order {
		if pkg := checked[path]; pkg != nil && listed[path].Standard {
			for _, name := range pkg.Scope().Names() {
				if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && !reachGeneric(tn.Type()) {
					addIface(tn.Type().Underlying())
				}
			}
		}
	}
	for _, obj := range info.Defs {
		if tn, ok := obj.(*types.TypeName); ok && !reachGeneric(tn.Type()) {
			addIface(tn.Type().Underlying())
		}
	}
	for _, tv := range info.Types {
		addIface(tv.Type)
	}
	satisfies := func(t types.Type, method string) bool {
		switch method {
		case "Unwrap", "Is", "As":
			return true
		}
		for _, it := range ifaces[method] {
			if reachGeneric(t) || types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
				return true
			}
		}
		return false
	}

	// Flood from the roots, then from the methods reached types offer
	// through interfaces, until nothing new is reached.
	reached := map[*reachDecl]bool{}
	var queue []*reachDecl
	mark := func(d *reachDecl) {
		if !reached[d] {
			reached[d] = true
			queue = append(queue, d)
		}
	}
	flood := func() {
		for {
			for len(queue) > 0 {
				d := queue[len(queue)-1]
				queue = queue[:len(queue)-1]
				for _, u := range d.uses {
					mark(u)
				}
			}
			for _, d := range all {
				tn, ok := d.obj.(*types.TypeName)
				if !ok || !reached[d] || tn.IsAlias() || types.IsInterface(tn.Type()) {
					continue
				}
				ms := types.NewMethodSet(types.NewPointer(tn.Type()))
				for i := range ms.Len() {
					m := decls[reachOrigin(ms.At(i).Obj())]
					if m != nil && !reached[m] && satisfies(tn.Type(), m.obj.Name()) {
						mark(m)
					}
				}
			}
			if len(queue) == 0 {
				return
			}
		}
	}
	for _, d := range all {
		if d.root {
			mark(d)
		}
	}
	flood()

	rep := &reachReport{decls: len(all)}
	byName := map[string]*reachDecl{}
	for _, d := range all {
		if !d.root {
			byName[d.name] = d
		}
	}
	names := make([]string, 0, len(allow))
	for name := range allow {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		switch d := byName[name]; {
		case d == nil:
			rep.stale = append(rep.stale, name+": names no declaration")
		case reached[d]:
			rep.stale = append(rep.stale, name+": reached")
		default:
			rep.allowed = append(rep.allowed, fmt.Sprintf("%s:%d %s", d.pos.Filename, d.pos.Line, d.name))
			mark(d)
		}
	}
	flood()

	sort.SliceStable(all, func(i, j int) bool {
		a, b := all[i].pos, all[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	for _, d := range all {
		if !reached[d] {
			rep.unreached = append(rep.unreached, fmt.Sprintf("%s:%d %s", d.pos.Filename, d.pos.Line, d.name))
			rep.lines += d.lines
		}
	}
	return rep, nil
}

// goListDeps lists the packages matched by ./... in dir and all their
// dependencies, with export data for each (built into the build cache if
// it is not there yet).
func goListDeps(dir string) ([]*listedPkg, error) {
	cmd := exec.Command("go", "list", "-e", "-export", "-deps",
		"-json=ImportPath,Name,Dir,Export,GoFiles,Standard,Error", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []*listedPkg
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		p := new(listedPkg)
		if err := dec.Decode(p); err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// reachName spells obj as the report and the allowlist do: the package name
// (a main package's import path instead), then the receiver's type name for
// a method, then the identifier.
func reachName(pkg *listedPkg, obj types.Object) string {
	qual := pkg.Name
	if qual == "main" {
		qual = pkg.ImportPath
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Signature().Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				return qual + "." + n.Obj().Name() + "." + obj.Name()
			}
		}
	}
	return qual + "." + obj.Name()
}

// reachOrigin maps an instantiated generic function, method or field to
// its declaration.
func reachOrigin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func reachGeneric(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.TypeParams().Len() > 0
}
