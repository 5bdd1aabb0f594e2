// Package doccheck is a small, dependency-free substitute for a lint
// tool: it parses Go packages and reports exported identifiers that
// lack doc comments, plus packages missing a package comment. The
// godoc-hygiene test applies it to internal/engine, internal/obs and
// every cmd/* package, so the documentation bar is enforced by `go
// test` in CI rather than by convention. CheckFlagTable holds README's
// engine-flags table to the flags each batch command registers.
package doccheck

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
)

// Mode selects how deep a check goes.
type Mode int

const (
	// PackageDoc requires only a package comment (the bar for cmd/*
	// packages, whose identifiers are unexported).
	PackageDoc Mode = iota
	// Full additionally requires a doc comment on every exported
	// top-level identifier: funcs, methods on exported receivers,
	// types, consts, vars, struct fields and interface methods.
	Full
)

// Check parses the (non-test) Go files of the package in dir and
// returns one human-readable violation per undocumented identifier,
// sorted for deterministic output. An empty slice means the package
// meets the bar.
func Check(dir string, mode Mode) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var violations []string
	for name, pkg := range pkgs {
		if strings.HasSuffix(name, "_test") {
			continue
		}
		violations = append(violations, checkPackage(fset, dir, pkg, mode)...)
	}
	sort.Strings(violations)
	return violations, nil
}

// checkPackage audits one parsed package.
func checkPackage(fset *token.FileSet, dir string, pkg *ast.Package, mode Mode) []string {
	var v []string
	hasPkgDoc := false
	for _, f := range pkg.Files {
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			hasPkgDoc = true
		}
	}
	if !hasPkgDoc {
		v = append(v, fmt.Sprintf("%s: package %s has no package comment", dir, pkg.Name))
	}
	if mode != Full {
		return v
	}
	report := func(pos token.Pos, format string, args ...any) {
		p := fset.Position(pos)
		v = append(v, fmt.Sprintf("%s:%d: %s", filepath.Join(dir, filepath.Base(p.Filename)), p.Line, fmt.Sprintf(format, args...)))
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() || !exportedReceiver(d) {
					continue
				}
				if d.Doc == nil {
					report(d.Pos(), "exported func %s has no doc comment", d.Name.Name)
				}
			case *ast.GenDecl:
				checkGenDecl(d, report)
			}
		}
	}
	return v
}

// exportedReceiver reports whether a function is package-level or a
// method whose receiver base type is itself exported (methods on
// unexported types are not part of the public surface).
func exportedReceiver(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver T[P]
			t = tt.X
		case *ast.IndexListExpr: // generic receiver T[P1, P2]
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}

// reportFunc is the violation callback used by the decl walkers.
type reportFunc func(pos token.Pos, format string, args ...any)

// checkGenDecl audits a type/const/var declaration group.
func checkGenDecl(d *ast.GenDecl, report reportFunc) {
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if !s.Name.IsExported() {
				continue
			}
			if s.Doc == nil && d.Doc == nil {
				report(s.Pos(), "exported type %s has no doc comment", s.Name.Name)
			}
			switch t := s.Type.(type) {
			case *ast.StructType:
				checkFields(s.Name.Name, t.Fields, "field", report)
			case *ast.InterfaceType:
				checkFields(s.Name.Name, t.Methods, "method", report)
			}
		case *ast.ValueSpec:
			for _, name := range s.Names {
				if !name.IsExported() {
					continue
				}
				// A group doc ("// Event kinds emitted...") covers its
				// members; otherwise the spec needs its own comment.
				if s.Doc == nil && s.Comment == nil && d.Doc == nil {
					report(name.Pos(), "exported %s %s has no doc comment", d.Tok, name.Name)
				}
			}
		}
	}
}

// checkFields audits the exported members of a struct or interface.
func checkFields(typeName string, fields *ast.FieldList, kind string, report reportFunc) {
	if fields == nil {
		return
	}
	for _, f := range fields.List {
		if f.Doc != nil || f.Comment != nil {
			continue
		}
		for _, name := range f.Names {
			if name.IsExported() {
				report(name.Pos(), "exported %s %s.%s has no doc comment", kind, typeName, name.Name)
			}
		}
	}
}
