package rationality

// The godoc audit: the module root (doc.go) and every internal package
// must keep a real package comment, and the operator-facing packages must
// document every export — the docs are part of the API. CI runs these
// tests as a dedicated "Docs audit" step; they also run under the ordinary
// `go test ./...`.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGodocFederationPackages audits every exported identifier of the
// packages that form the operator-facing API
// surface: internal/quorum, internal/identity, internal/obs and
// internal/node. Operators embed these directly (key management, quorum
// clients, the signed anti-entropy digest, the admin plane, a whole
// authority), so each exported function,
// method, type, constant, variable and struct field must carry a doc
// comment of its own or sit under a documented group/parent.
func TestGodocFederationPackages(t *testing.T) {
	for _, dir := range []string{
		filepath.Join("internal", "quorum"),
		filepath.Join("internal", "identity"),
		filepath.Join("internal", "obs"),
		filepath.Join("internal", "node"),
	} {
		t.Run(dir, func(t *testing.T) {
			auditPackageExports(t, dir)
		})
	}
}

// auditPackageExports parses every non-test file of dir and reports each
// undocumented exported identifier, including methods and struct fields.
func auditPackageExports(t *testing.T, dir string) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var undocumented []string
	report := func(name string, pos token.Pos) {
		undocumented = append(undocumented,
			name+" ("+fset.Position(pos).String()+")")
	}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing %s: %v", path, err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				// Methods count too: a documented API is documented at
				// every call site godoc renders, receiver or not.
				if d.Name.IsExported() && d.Doc == nil {
					report(funcDisplayName(d), d.Pos())
				}
			case *ast.GenDecl:
				auditGenDecl(d, report)
			}
		}
	}
	if len(undocumented) > 0 {
		t.Errorf("%s exports without doc comments:\n  %s",
			dir, strings.Join(undocumented, "\n  "))
	}
}

// auditGenDecl reports undocumented exported members of one const/var/type
// declaration, honoring the godoc group convention (one comment on the
// group documents its members) and descending into struct fields.
func auditGenDecl(d *ast.GenDecl, report func(name string, pos token.Pos)) {
	groupDocumented := d.Doc != nil
	for _, spec := range d.Specs {
		switch sp := spec.(type) {
		case *ast.TypeSpec:
			if sp.Name.IsExported() {
				if sp.Doc == nil && sp.Comment == nil && !groupDocumented {
					report(sp.Name.Name, sp.Pos())
				}
				if st, ok := sp.Type.(*ast.StructType); ok {
					auditStructFields(sp.Name.Name, st, report)
				}
			}
		case *ast.ValueSpec:
			for _, name := range sp.Names {
				if name.IsExported() && sp.Doc == nil && sp.Comment == nil && !groupDocumented {
					report(name.Name, name.Pos())
				}
			}
		}
	}
}

// auditStructFields reports undocumented exported fields of one struct
// type. A field group (several names, one comment) counts as documented
// for all its names.
func auditStructFields(typeName string, st *ast.StructType, report func(name string, pos token.Pos)) {
	for _, field := range st.Fields.List {
		if field.Doc != nil || field.Comment != nil {
			continue
		}
		for _, name := range field.Names {
			if name.IsExported() {
				report(typeName+"."+name.Name, name.Pos())
			}
		}
	}
}

// funcDisplayName renders a function or method name the way the failure
// list should show it: Recv.Name for methods, Name for functions.
func funcDisplayName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	recv := d.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	if ident, ok := recv.(*ast.Ident); ok {
		return ident.Name + "." + d.Name.Name
	}
	return d.Name.Name
}

// TestGodocPackageComments fails when any internal package (or the module
// root's doc.go) lacks a real package comment: one that exists and starts with
// the canonical "Package <name>" so godoc renders it as the synopsis.
func TestGodocPackageComments(t *testing.T) {
	dirs := []string{"."}
	entries, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, filepath.Join("internal", e.Name()))
		}
	}
	for _, dir := range dirs {
		pkgComment, pkgName := packageComment(t, dir)
		if pkgName == "" {
			continue // no buildable Go files
		}
		switch {
		case pkgComment == "":
			t.Errorf("package %s (%s) has no package comment", pkgName, dir)
		case !strings.HasPrefix(pkgComment, "Package "+pkgName):
			t.Errorf("package %s (%s): package comment must start with %q, got %q",
				pkgName, dir, "Package "+pkgName, firstLine(pkgComment))
		}
	}
}

// packageComment parses the non-test Go files of dir and returns the
// package comment (from whichever file carries one) and the package name.
func packageComment(t *testing.T, dir string) (comment, pkgName string) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.PackageClauseOnly|parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing %s: %v", path, err)
		}
		pkgName = f.Name.Name
		if f.Doc != nil {
			return strings.TrimSpace(f.Doc.Text()), pkgName
		}
	}
	return "", pkgName
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
