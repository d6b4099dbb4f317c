package headroom_test

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
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
}

const reachAllowMax = 8

// fieldAllow names the struct fields no program writes that stay on
// purpose, each with its reason. It holds at most fieldAllowMax entries, and
// an entry a program writes fails the test as stale.
var fieldAllow = map[string]string{
	"server.Config.Clock":  "test fixture: the chaos tests advance a fake breaker clock through it",
	"faults.Rule.Prob":     "test fixture: partial_test.go drives probability stalls through it",
	"faults.Rule.StallFor": "test fixture: the hedging and stall tests drive slow workers through it",
}

const fieldAllowMax = 4

// paramAllow names the parameters every program call sets to one constant
// that stay on purpose, each with its reason. It holds at most paramAllowMax
// entries, and an entry that names no such parameter fails the test as stale.
var paramAllow = map[string]string{
	"headroom.Session.Aggregate src": "capbench compiles against Aggregate(ctx, nil); library callers pass a trace or synth source",
}

const paramAllowMax = 2

// batchMains are the one-shot binaries of the method's batch half: trace
// in, plan or artefact out. Their dependency closures hold none of
// serviceOnly, which capserved alone links.
var (
	batchMains  = []string{"headroom/cmd/capsim", "headroom/cmd/capplan", "headroom/cmd/experiments"}
	serviceOnly = []string{"net/http", "net/http/pprof", "crypto/tls"}
)

// TestReachable type-checks every non-test package of the module, its
// examples and cmd/capbench, and fails on each package-level declaration or
// method that no main, init or blank-var root reaches, on each struct field
// that no non-test code writes, and on each parameter that two or more
// non-test calls all set to one constant. From the same package listing it
// also fails on a non-test package that imports testing and on a batch main
// that links a package of serviceOnly.
func TestReachable(t *testing.T) {
	if len(reachAllow) > reachAllowMax {
		t.Errorf("allowlist has %d entries, at most %d allowed", len(reachAllow), reachAllowMax)
	}
	if len(fieldAllow) > fieldAllowMax {
		t.Errorf("field allowlist has %d entries, at most %d allowed", len(fieldAllow), fieldAllowMax)
	}
	if len(paramAllow) > paramAllowMax {
		t.Errorf("parameter allowlist has %d entries, at most %d allowed", len(paramAllow), paramAllowMax)
	}
	rep, err := analyzeReach([]string{".", "cmd/capbench"}, reachAllow, fieldAllow, paramAllow, batchMains)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d declarations: %d reached, %d allowlisted, %d unreached (%d lines)",
		rep.decls, rep.decls-len(rep.allowed)-len(rep.unreached), len(rep.allowed), len(rep.unreached), rep.lines)
	for _, a := range rep.allowed {
		t.Logf("allowlisted %s: %s", a, reachAllow[strings.Fields(a)[1]])
	}
	t.Logf("%d fields: %d written, %d json-tagged, %d allowlisted, %d unwritten",
		rep.fields, rep.fields-rep.tagged-len(rep.fieldAllowed)-len(rep.unwritten), rep.tagged, len(rep.fieldAllowed), len(rep.unwritten))
	for _, a := range rep.fieldAllowed {
		t.Logf("allowlisted %s: %s", a, fieldAllow[strings.Fields(a)[1]])
	}
	t.Logf("%d parameters: %d exempt, %d with fewer than two calls, %d varied, %d allowlisted, %d fixed",
		rep.params, rep.exempt, rep.fewCalls, rep.params-rep.exempt-rep.fewCalls-len(rep.paramAllowed)-len(rep.fixed), len(rep.paramAllowed), len(rep.fixed))
	for _, a := range rep.paramAllowed {
		f := strings.Fields(a)
		t.Logf("allowlisted %s: %s", a, paramAllow[f[1]+" "+f[2]])
	}
	for _, c := range rep.closures {
		t.Logf("batch main %s", c)
	}
	for _, l := range rep.layering {
		t.Errorf("layering: %s", l)
	}
	for _, s := range rep.stale {
		t.Errorf("stale allowlist entry %s", s)
	}
	for _, u := range rep.unreached {
		t.Errorf("unreached: %s", u)
	}
	for _, u := range rep.unwritten {
		t.Errorf("unwritten: %s", u)
	}
	for _, u := range rep.fixed {
		t.Errorf("fixed by every caller: %s", u)
	}
}

// reachReport is what analyzeReach finds. Declarations and fields are
// spelled "file:line identifier", file relative to the first listed
// directory.
type reachReport struct {
	decls     int      // package-level declarations and methods of the program
	unreached []string // in file order
	lines     int      // lines the unreached declarations span, doc comments included
	allowed   []string // allowlisted declarations, unreached as they should be
	stale     []string // allowlist entries a root reaches or a program writes, or that name nothing

	fields       int      // struct fields the program declares
	tagged       int      // fields with a json tag, which encoding/json writes
	unwritten    []string // in file order
	fieldAllowed []string // allowlisted fields, unwritten as they should be

	params       int      // named parameters of the program's functions and methods
	exempt       int      // of a function used as a value or a method an interface reaches, or variadic
	fewCalls     int      // of a function with fewer than two non-test calls
	fixed        []string // "file:line pkg.Func param = value", in file order
	paramAllowed []string // allowlisted parameters, fixed as they should be

	closures []string // "path: N dependencies" per batch main, in the order given
	layering []string // "path imports testing", "path links net/http" or "path: not listed"
}

// listedPkg is the part of `go list -json` the analysis reads.
type listedPkg struct {
	ImportPath, Name, Dir, Export string
	GoFiles, Imports, Deps        []string
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
// the roots. Then every struct field must be written (fieldWrites says what
// a write is) unless it has a json tag or fieldAllow names it, and no
// parameter may be fixed (fixedParam says what that is) unless paramAllow
// names it. Last, no listed package outside the standard library may import
// testing (test files are not listed), and no main named in batch may have
// a package of serviceOnly among its dependencies.
func analyzeReach(dirs []string, allow, fieldAllow, paramAllow map[string]string, batch []string) (*reachReport, error) {
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
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
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

	// position spells p with its file relative to base.
	position := func(p token.Pos) token.Position {
		pos := fset.Position(p)
		if rel, err := filepath.Rel(base, pos.Filename); err == nil {
			pos.Filename = filepath.ToSlash(rel)
		}
		return pos
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
		d := &reachDecl{
			name:  reachName(pkg, obj),
			pos:   position(id.Pos()),
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

	slices.SortStableFunc(all, func(a, b *reachDecl) int { return posCompare(a.pos, b.pos) })
	for _, d := range all {
		if !reached[d] {
			rep.unreached = append(rep.unreached, fmt.Sprintf("%s:%d %s", d.pos.Filename, d.pos.Line, d.name))
			rep.lines += d.lines
		}
	}

	// Fields: each one the program declares, named by its struct, must be
	// written somewhere outside a withDefaults method. Identical unnamed
	// struct types are one type, so their fields are declared where the
	// first of them is, and canon maps the others' fields there.
	type field struct {
		name string
		pos  token.Position
	}
	var fields []*types.Var
	named := map[*types.Var]field{}
	tagged := map[*types.Var]bool{}
	canon := map[*types.Var]*types.Var{}
	var unnamed []*types.Struct
	var qual string // of the package being declared
	var declare func(prefix string, n ast.Node)
	declareFields := func(prefix string, n *ast.StructType) {
		st, k := info.TypeOf(n).(*types.Struct), 0
		for _, f := range n.Fields.List {
			for range max(1, len(f.Names)) { // an embedded field has no names
				v, tag := st.Field(k), st.Tag(k)
				k++
				name := prefix + "." + v.Name()
				if v.Name() != "_" {
					fields = append(fields, v)
					named[v] = field{name, position(v.Pos())}
					_, tagged[v] = reflect.StructTag(tag).Lookup("json")
				}
				declare(name, f.Type)
			}
		}
	}
	declare = func(prefix string, n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				if st, ok := n.Type.(*ast.StructType); ok {
					declareFields(qual+"."+n.Name.Name, st)
				} else {
					declare(qual+"."+n.Name.Name, n.Type)
				}
				return false
			case *ast.ValueSpec:
				if prefix == qual { // a package-level var names its unnamed structs
					declare(qual+"."+n.Names[0].Name, n)
					return false
				}
			case *ast.StructType:
				st := info.TypeOf(n).(*types.Struct)
				if i := slices.IndexFunc(unnamed, func(u *types.Struct) bool { return types.Identical(u, st) }); i >= 0 {
					for k := range st.NumFields() {
						canon[st.Field(k)] = unnamed[i].Field(k)
					}
				} else {
					unnamed = append(unnamed, st)
					declareFields(prefix, n)
				}
				return false
			}
			return true
		})
	}
	written := map[*types.Var]bool{}
	for _, path := range order {
		pkg := listed[path]
		qual = reachQual(pkg)
		for _, f := range files[path] {
			for _, decl := range f.Decls {
				prefix := qual
				if fd, ok := decl.(*ast.FuncDecl); ok {
					prefix = reachName(pkg, info.Defs[fd.Name])
				}
				declare(prefix, decl)
			}
			fieldWrites(info, f, written)
		}
	}
	for v := range written {
		if c := canon[v]; c != nil {
			written[c] = true
		}
	}
	byField := map[string]*types.Var{}
	for _, v := range fields {
		byField[named[v].name] = v
	}
	names = names[:0]
	for name := range fieldAllow {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		switch v := byField[name]; {
		case v == nil:
			rep.stale = append(rep.stale, name+": names no field")
		case written[v] || tagged[v]:
			rep.stale = append(rep.stale, name+": written")
		default:
			rep.fieldAllowed = append(rep.fieldAllowed, fmt.Sprintf("%s:%d %s", named[v].pos.Filename, named[v].pos.Line, name))
			written[v] = true
		}
	}
	slices.SortStableFunc(fields, func(a, b *types.Var) int { return posCompare(named[a].pos, named[b].pos) })
	rep.fields = len(fields)
	for _, v := range fields {
		switch {
		case tagged[v]:
			rep.tagged++
		case !written[v]:
			rep.unwritten = append(rep.unwritten, fmt.Sprintf("%s:%d %s", named[v].pos.Filename, named[v].pos.Line, named[v].name))
		}
	}

	// Parameters: each call of a program function, and each use of one that
	// is not a call, from every file; then each declaration's parameters.
	calls := map[types.Object][]*ast.CallExpr{}
	valued := map[types.Object]bool{}
	for _, path := range order {
		for _, f := range files[path] {
			funcCalls(info, f, calls, valued)
		}
	}
	allowSeen := map[string]bool{}
	for _, d := range all { // in file order
		if _, ok := d.syn.(*ast.FuncDecl); !ok {
			continue
		}
		fn := d.obj.(*types.Func)
		sig := fn.Signature()
		exempt := valued[fn]
		if recv := sig.Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			exempt = exempt || satisfies(t, fn.Name())
		}
		for i := range sig.Params().Len() {
			v := sig.Params().At(i)
			if v.Name() == "" || v.Name() == "_" {
				continue
			}
			rep.params++
			val := fixedParam(info, sig, i, calls[fn])
			switch key := d.name + " " + v.Name(); {
			case exempt || sig.Variadic() && i == sig.Params().Len()-1:
				rep.exempt++
			case len(calls[fn]) < 2:
				rep.fewCalls++
			case val != "":
				pos := position(v.Pos())
				line := fmt.Sprintf("%s:%d %s = %s", pos.Filename, pos.Line, key, val)
				if _, ok := paramAllow[key]; ok {
					rep.paramAllowed = append(rep.paramAllowed, line)
					allowSeen[key] = true
				} else {
					rep.fixed = append(rep.fixed, line)
				}
			}
		}
	}
	names = names[:0]
	for name := range paramAllow {
		if !allowSeen[name] {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		rep.stale = append(rep.stale, name+": not fixed")
	}

	// Layering.
	for _, path := range order {
		if p := listed[path]; !p.Standard && slices.Contains(p.Imports, "testing") {
			rep.layering = append(rep.layering, path+" imports testing")
		}
	}
	for _, path := range batch {
		p := listed[path]
		if p == nil {
			rep.layering = append(rep.layering, path+": not listed")
			continue
		}
		rep.closures = append(rep.closures, fmt.Sprintf("%s: %d dependencies", path, len(p.Deps)))
		for _, dep := range serviceOnly {
			if slices.Contains(p.Deps, dep) {
				rep.layering = append(rep.layering, path+" links "+dep)
			}
		}
	}
	return rep, nil
}

// funcCalls records in calls each call f makes to a declared function or
// method, by its origin, and in valued each function f uses other than by
// calling it: passed, assigned, or named as a method value or expression.
func funcCalls(info *types.Info, f *ast.File, calls map[types.Object][]*ast.CallExpr, valued map[types.Object]bool) {
	callee := map[*ast.Ident]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id := calleeIdent(info, n.Fun); id != nil {
				if fn, ok := info.Uses[id].(*types.Func); ok {
					calls[fn.Origin()] = append(calls[fn.Origin()], n)
					callee[id] = true
				}
			}
		case *ast.Ident:
			if fn, ok := info.Uses[n].(*types.Func); ok && !callee[n] {
				valued[fn.Origin()] = true
			}
		}
		return true
	})
}

// calleeIdent is the identifier naming the function a call's fun
// expression calls directly, or nil (a method expression T.M shifts the
// arguments by its receiver, so it counts as a use, not a call).
func calleeIdent(info *types.Info, fun ast.Expr) *ast.Ident {
	for {
		switch x := fun.(type) {
		case *ast.ParenExpr:
			fun = x.X
		case *ast.IndexExpr: // an instantiation f[T]
			fun = x.X
		case *ast.IndexListExpr:
			fun = x.X
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			if sel := info.Selections[x]; sel != nil && sel.Kind() == types.MethodExpr {
				return nil
			}
			return x.Sel
		default:
			return nil
		}
	}
}

// fixedParam returns the one value all calls pass as parameter i of sig,
// or "" if they pass different values or a value that is not a constant. A
// value is a go/constant value or nil; a call that spreads a multi-valued
// call over the parameters passes no constant.
func fixedParam(info *types.Info, sig *types.Signature, i int, calls []*ast.CallExpr) string {
	var first types.TypeAndValue
	for k, c := range calls {
		if i >= len(c.Args) || len(c.Args) != sig.Params().Len() && !sig.Variadic() {
			return ""
		}
		tv := info.Types[c.Args[i]]
		switch {
		case tv.Value == nil && !tv.IsNil():
			return ""
		case k == 0:
			first = tv
		case tv.IsNil() != first.IsNil() || tv.Value != nil && !sameConstant(tv.Value, first.Value):
			return ""
		}
	}
	switch {
	case first.IsNil():
		return "nil"
	case first.Value != nil:
		return first.Value.String()
	}
	return "" // no calls
}

// sameConstant reports whether a and b are one value; an integer and a
// float compare as numbers.
func sameConstant(a, b constant.Value) bool {
	num := func(k constant.Kind) bool { return k == constant.Int || k == constant.Float }
	if a.Kind() != b.Kind() && !(num(a.Kind()) && num(b.Kind())) {
		return false
	}
	return constant.Compare(a, token.EQL, b)
}

// fieldWrites marks in written each field f's code writes: a keyed entry
// of a composite literal (a positional one writes every field); the operand
// of =, op=, ++, --, & or a range clause that assigns, down through
// selectors and array indexes that do not pass a pointer; and the operand
// of a pointer-receiver method, which Go addresses implicitly (x.mu.Lock()).
// A withDefaults method restates defaults and writes nothing.
func fieldWrites(info *types.Info, f *ast.File, written map[*types.Var]bool) {
	var write func(e ast.Expr)
	write = func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.IndexExpr:
				if _, ok := info.TypeOf(x.X).Underlying().(*types.Array); !ok {
					return
				}
				e = x.X
			case *ast.SelectorExpr:
				sel := info.Selections[x]
				if sel == nil {
					return
				}
				fs, operand := selWrites(sel)
				for _, v := range fs {
					written[v.Origin()] = true
				}
				if !operand {
					return
				}
				e = x.X
			default:
				return
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			return n.Recv == nil || n.Name.Name != "withDefaults"
		case *ast.CompositeLit:
			t := info.TypeOf(n).Underlying()
			if p, ok := t.(*types.Pointer); ok { // an elided &T{} in []*T{{…}}
				t = p.Elem().Underlying()
			}
			st, ok := t.(*types.Struct)
			if !ok {
				return true
			}
			for i, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if v, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
						written[v.Origin()] = true
					}
				} else {
					written[st.Field(i).Origin()] = true
				}
			}
		case *ast.AssignStmt:
			for _, e := range n.Lhs {
				write(e)
			}
		case *ast.IncDecStmt:
			write(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				write(n.X)
			}
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				write(n.Key)
				write(n.Value)
			}
		case *ast.SelectorExpr:
			if sel := info.Selections[n]; sel != nil && sel.Kind() == types.MethodVal {
				write(n)
			}
		}
		return true
	})
}

// selWrites returns the fields a write through sel modifies: the field it
// selects and the embedded fields it passes after the last pointer, or for a
// pointer-receiver method the embedded fields alone (a value receiver
// modifies nothing). operand reports whether the write reaches sel's
// operand too, which it does when no pointer lies on the way.
func selWrites(sel *types.Selection) (fields []*types.Var, operand bool) {
	t, idx := sel.Recv(), sel.Index()
	if sel.Kind() == types.MethodVal {
		if _, ok := sel.Obj().(*types.Func).Signature().Recv().Type().(*types.Pointer); !ok {
			return nil, false
		}
		idx = idx[:len(idx)-1]
	}
	operand = true
	for _, k := range idx {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			fields, operand, t = nil, false, p.Elem()
		}
		v := t.Underlying().(*types.Struct).Field(k)
		fields = append(fields, v)
		t = v.Type()
	}
	if _, ok := t.Underlying().(*types.Pointer); ok && sel.Kind() == types.MethodVal {
		return nil, false
	}
	return fields, operand
}

// posCompare orders positions by file, then offset.
func posCompare(a, b token.Position) int {
	return cmp.Or(strings.Compare(a.Filename, b.Filename), a.Offset-b.Offset)
}

// goListDeps lists the packages matched by ./... in dir and all their
// dependencies, with export data for each (built into the build cache if
// it is not there yet).
func goListDeps(dir string) ([]*listedPkg, error) {
	cmd := exec.Command("go", "list", "-e", "-export", "-deps",
		"-json=ImportPath,Name,Dir,Export,GoFiles,Imports,Deps,Standard,Error", "./...")
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
	qual := reachQual(pkg)
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

// reachQual is the package part of a name: the package name, or a main
// package's import path.
func reachQual(pkg *listedPkg) string {
	if pkg.Name == "main" {
		return pkg.ImportPath
	}
	return pkg.Name
}

func reachGeneric(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.TypeParams().Len() > 0
}
