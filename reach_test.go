package rationality

// The reachability audit: every exported function and method outside the
// test files must be reachable from a program (a `main` package: the two
// commands and the benchmark; or an Example function of the root
// directory's external test package, the example_*_test.go files, which
// `go test` runs and checks) or named by a row of the paper-claim ledger
// (claims_test.go). An export that only tests reach is library surface
// nobody uses; it belongs in a _test.go file or nowhere.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// modulePath is the module's import path prefix (go.mod).
const modulePath = "rationality"

// TestExportsAreReached type-checks the module's non-test files and walks
// the call graph from every program's main, every Example function, init
// functions and package variables, and from every function a ledger row
// names. A method counts as reached when it satisfies an interface, since
// an interface call reaches it without naming it. Every exported function or method of a
// non-main package that the walk misses is reported.
func TestExportsAreReached(t *testing.T) {
	m, err := loadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	var roots []*types.Func
	for _, row := range paperClaims {
		for _, name := range row.funcs {
			fn := m.lookupFunc(row.pkg, name)
			if fn == nil {
				t.Errorf("ledger row %s names %s.%s, which the module does not declare", row.test, row.pkg, name)
				continue
			}
			roots = append(roots, fn)
		}
	}
	if unreached := m.unreachedExports(roots); len(unreached) > 0 {
		t.Errorf("%d exported functions are reached by no program and named by no ledger row "+
			"(delete them, move them to a _test.go file, or name them in a ledger row):\n  %s",
			len(unreached), strings.Join(unreached, "\n  "))
	}
}

// module is the type-checked set of the module's packages, non-test files
// only, as the default build context selects them, and the root
// directory's external test package, which holds the Example functions.
type module struct {
	fset     *token.FileSet
	std      types.Importer
	dirs     map[string]string // import path -> directory
	pkgs     map[string]*modulePkg
	order    []*modulePkg // in load order: dependencies first
	examples *modulePkg   // package rationality_test; nil without one
}

type modulePkg struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// loadModule finds every package directory under root (skipping testdata
// and hidden directories) and type-checks each from source. Standard
// library imports come from the toolchain's export data.
func loadModule(root string) (*module, error) {
	m := &module{
		fset: token.NewFileSet(),
		dirs: map[string]string{},
		pkgs: map[string]*modulePkg{},
	}
	m.std = importer.ForCompiler(m.fset, "gc", nil)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		imp := modulePath
		if rel != "." {
			imp += "/" + filepath.ToSlash(rel)
		}
		m.dirs[imp] = path
		return nil
	})
	if err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(m.dirs))
	for p := range m.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := m.load(p); err != nil {
			return nil, err
		}
	}
	return m, m.loadExamples(root)
}

// loadExamples type-checks the _test.go files of root that form the
// external test package, where the Example functions live.
func (m *module) loadExamples(root string) error {
	names, err := filepath.Glob(filepath.Join(root, "*_test.go"))
	if err != nil {
		return err
	}
	p := &modulePkg{path: modulePath + "_test"}
	for _, name := range names {
		f, err := parser.ParseFile(m.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if f.Name.Name == p.path {
			p.files = append(p.files, f)
		}
	}
	if len(p.files) == 0 {
		return nil
	}
	if err := m.check(p); err != nil {
		return err
	}
	m.examples = p
	m.order = append(m.order, p)
	return nil
}

// isProgram reports whether p is a main package or the Example package:
// code that runs as a program, whose own declarations are never library
// surface.
func (m *module) isProgram(p *modulePkg) bool {
	return p.types.Name() == "main" || p == m.examples
}

// Import resolves module packages from source and everything else through
// the standard importer; it is the types.Config importer for load.
func (m *module) Import(path string) (*types.Package, error) {
	if _, ok := m.dirs[path]; ok {
		p, err := m.load(path)
		if err != nil {
			return nil, err
		}
		return p.types, nil
	}
	return m.std.Import(path)
}

// load parses and type-checks one module package (memoized). A directory
// without buildable non-test files yields a nil package.
func (m *module) load(path string) (*modulePkg, error) {
	if p, ok := m.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	m.pkgs[path] = nil
	dir := m.dirs[path]
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	p := &modulePkg{path: path}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	if len(p.files) == 0 {
		delete(m.pkgs, path)
		delete(m.dirs, path)
		return nil, nil
	}
	if err := m.check(p); err != nil {
		return nil, err
	}
	m.pkgs[path] = p
	m.order = append(m.order, p)
	return p, nil
}

// check type-checks p's parsed files, recording the uses and definitions
// the call-graph walk reads.
func (m *module) check(p *modulePkg) error {
	p.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	var err error
	p.types, err = (&types.Config{Importer: m}).Check(p.path, m.fset, p.files, p.info)
	return err
}

// lookupFunc resolves a ledger name, "Func" or "Type.Method", in the
// package internal/pkg.
func (m *module) lookupFunc(pkg, name string) *types.Func {
	p := m.pkgs[modulePath+"/internal/"+pkg]
	if p == nil {
		return nil
	}
	typeName, method, isMethod := strings.Cut(name, ".")
	obj := p.types.Scope().Lookup(typeName)
	if !isMethod {
		fn, _ := obj.(*types.Func)
		return fn
	}
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return nil
	}
	mobj, _, _ := types.LookupFieldOrMethod(types.NewPointer(tn.Type()), true, p.types, method)
	fn, _ := mobj.(*types.Func)
	return fn
}

// unreachedExports walks the module's call graph from the programs, the
// interface-satisfying methods and extra, and returns each exported
// function or method of a non-main package that the walk never reaches,
// as "path/to/file.go:line:col: Recv.Name (n lines)", counting its doc
// comment.
func (m *module) unreachedExports(extra []*types.Func) []string {
	type declared struct {
		decl *ast.FuncDecl
		pkg  *modulePkg
	}
	decls := map[*types.Func]declared{}
	for _, p := range m.order {
		for _, f := range p.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					if fn, ok := p.info.Defs[fd.Name].(*types.Func); ok {
						decls[fn] = declared{fd, p}
					}
				}
			}
		}
	}

	// queue holds the code still to walk, with the type information that
	// resolves its identifiers.
	type pending struct {
		node ast.Node
		info *types.Info
	}
	var queue []pending
	reached := map[*types.Func]bool{}
	mark := func(fn *types.Func) {
		fn = fn.Origin()
		if reached[fn] {
			return
		}
		reached[fn] = true
		if d, ok := decls[fn]; ok && d.decl.Body != nil {
			queue = append(queue, pending{d.decl.Body, d.pkg.info})
		}
	}

	// Roots: each program's main, every Example function, and the
	// initialisation of every package a program imports (init functions
	// and package-level variables).
	imported := map[string]bool{}
	var visit func(pkg *types.Package)
	visit = func(pkg *types.Package) {
		if imported[pkg.Path()] {
			return
		}
		imported[pkg.Path()] = true
		for _, dep := range pkg.Imports() {
			visit(dep)
		}
	}
	for _, p := range m.order {
		if m.isProgram(p) {
			visit(p.types)
		}
	}
	for _, p := range m.order {
		if !imported[p.path] {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					isMain := d.Name.Name == "main" && p.types.Name() == "main"
					isExample := strings.HasPrefix(d.Name.Name, "Example") && p == m.examples
					if d.Recv == nil && (d.Name.Name == "init" || isMain || isExample) {
						queue = append(queue, pending{d.Body, p.info})
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						queue = append(queue, pending{d, p.info})
					}
				}
			}
		}
	}

	// Roots: every method whose name and signature match a method of an
	// interface the module or its imports declare.
	ifaces := m.interfaceMethods()
	for fn := range decls {
		sig := fn.Type().(*types.Signature)
		if sig.Recv() == nil {
			continue
		}
		for _, im := range ifaces[fn.Name()] {
			if types.Identical(stripRecv(sig), stripRecv(im.Type().(*types.Signature))) {
				mark(fn)
				break
			}
		}
	}
	for _, fn := range extra {
		mark(fn)
	}

	for len(queue) > 0 {
		next := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		ast.Inspect(next.node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if fn, ok := next.info.Uses[id].(*types.Func); ok {
					mark(fn)
				}
			}
			return true
		})
	}

	var out []string
	for fn, d := range decls {
		if !fn.Exported() || m.isProgram(d.pkg) || reached[fn] {
			continue
		}
		fd := d.decl
		start := fd.Pos()
		if fd.Doc != nil {
			start = fd.Doc.Pos()
		}
		lines := m.fset.Position(fd.End()).Line - m.fset.Position(start).Line + 1
		out = append(out, fmt.Sprintf("%s: %s (%d lines)", m.fset.Position(fd.Pos()), funcDisplayName(fd), lines))
	}
	sort.Strings(out)
	return out
}

// interfaceMethods indexes by name the methods of every interface type the
// module's packages declare or use, and of every interface declared at
// package level in a package they import, directly or not.
func (m *module) interfaceMethods() map[string][]*types.Func {
	out := map[string][]*types.Func{}
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			fn := it.Method(i)
			out[fn.Name()] = append(out[fn.Name()], fn)
		}
	}
	add(types.Universe.Lookup("error").Type())
	pkgs := map[*types.Package]bool{}
	var visit func(pkg *types.Package)
	visit = func(pkg *types.Package) {
		if pkgs[pkg] {
			return
		}
		pkgs[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, dep := range pkg.Imports() {
			visit(dep)
		}
	}
	for _, p := range m.order {
		visit(p.types)
		for _, tv := range p.info.Types {
			if tv.Type != nil {
				add(tv.Type)
			}
		}
	}
	return out
}

// stripRecv returns sig without its receiver, so a concrete method and an
// interface method compare by parameters and results alone.
func stripRecv(sig *types.Signature) *types.Signature {
	return types.NewSignatureType(nil, nil, nil, sig.Params(), sig.Results(), sig.Variadic())
}
