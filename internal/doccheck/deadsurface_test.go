package doccheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// keptUnreferenced lists the exported package-level functions under
// internal/ that no non-test file calls but that stay on purpose, each
// with the reason. Every other exported function with no non-test
// reference is dead surface and fails TestNoDeadExportedFuncs.
var keptUnreferenced = map[string]string{
	"coplot/internal/doccheck.Check":          "the godoc-hygiene gate; this package's tests apply it to the tree",
	"coplot/internal/doccheck.CheckFlagTable": "the flag-table gate; the coplot, hurst and experiments tests apply it to their binaries",
	"coplot/internal/experiments.Figure1":     "root bench_test.go benchmarks one paper figure per call",
	"coplot/internal/experiments.Figure2":     "root bench_test.go benchmarks one paper figure per call",
	"coplot/internal/experiments.Figure3":     "root bench_test.go benchmarks one paper figure per call",
	"coplot/internal/experiments.Figure5":     "root bench_test.go benchmarks one paper figure per call",
	"coplot/internal/experiments.Params3":     "root bench_test.go benchmarks the section-8 parameter figure",
	"coplot/internal/fft.IFFT":                "the inverse transform the FFT round-trip test checks FFT against",
	"coplot/internal/fgn.Hosking":             "the exact O(n²) generator Davies-Harte is tested and benchmarked against",
	"coplot/internal/mat.FromRows":            "literal-matrix constructor of the mat, mds and stats tests",
	"coplot/internal/series.ACF":              "equation 5's sample autocorrelation; the fGn tests measure the generators with it",
	"coplot/internal/service.APIReference":    "renders docs/API.md; the service tests keep that file current",
	"coplot/internal/stats.PAVA":              "allocating form of PAVAScratch.Fit, the solver's monotone step; the PAVA tests reach Fit through it",
	"coplot/internal/swf.Merge":               "splices logs for the homogeneity audit's regime-change test",
}

// keptUnselected lists the exported methods under internal/ that no
// non-test file selects by name but that stay on purpose, each with the
// reason. Keys are "importpath.Type.Method".
var keptUnselected = map[string]string{
	"coplot/internal/mat.Matrix.MulVec":   "the Solve and EigenSym tests check A·x = b and A·v = λv with it",
	"coplot/internal/obs.Manifest.Stable": "the manifest-determinism tests' normalizer: it strips the wall-clock fields",
	"coplot/internal/swf.Log.ShiftTime":   "splices logs end to end for the homogeneity audit's regime-change test",
}

// interfaceMethods are the method names declared under internal/ that
// the standard library calls through its own interfaces (error, fmt,
// errors, sort, container/heap, io, net/http), so a method of that
// name is live without a selector.
var interfaceMethods = map[string]bool{
	"Error": true, "String": true, "Unwrap": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Write": true, "ServeHTTP": true,
}

// goFile is one parsed non-test Go file of the tree.
type goFile struct {
	pkg  string // import path of the file's package
	file *ast.File
}

// parseTree parses every non-test Go file under root, each with its
// package's import path (module path + directory). Hidden directories
// (build output among them) and testdata are skipped.
func parseTree(t *testing.T, root, module string) []goFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []goFile
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		files = append(files, goFile{pkg: path.Join(module, filepath.ToSlash(rel)), file: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// references collects what the files refer to: "importpath.Name" for
// every qualified identifier (pkg.Name through an import) and for
// every bare identifier used inside its own package. Declaration names
// are not uses.
func references(files []goFile) map[string]bool {
	refs := map[string]bool{}
	for _, gf := range files {
		imports := map[string]string{} // local name → import path
		for _, imp := range gf.file.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			local := path.Base(p)
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = p
		}
		decl := map[*ast.Ident]bool{}
		for _, d := range gf.file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				decl[fd.Name] = true
			}
		}
		ast.Inspect(gf.file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						refs[p+"."+n.Sel.Name] = true
					}
				}
			case *ast.Ident:
				if !decl[n] {
					refs[gf.pkg+"."+n.Name] = true
				}
			}
			return true
		})
	}
	return refs
}

// moduleFiles parses the repository's non-test files and returns them
// with the module path.
func moduleFiles(t *testing.T) ([]goFile, string) {
	t.Helper()
	root := filepath.Join("..", "..")
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	module := ""
	for _, line := range strings.Split(string(mod), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			module = strings.TrimSpace(rest)
		}
	}
	if module == "" {
		t.Fatal("go.mod names no module")
	}
	return parseTree(t, root, module), module
}

// TestNoDeadExportedFuncs fails on any exported package-level function
// under internal/ that no non-test file of the repository (the module
// and bench/coplotbench, which imports it) references, unless
// keptUnreferenced names it. A function only its own tests call is
// surface to maintain with no user; delete it with its tests.
func TestNoDeadExportedFuncs(t *testing.T) {
	files, module := moduleFiles(t)
	refs := references(files)

	var dead []string
	declared := 0
	kept := map[string]bool{}
	for _, gf := range files {
		if !strings.HasPrefix(gf.pkg, module+"/internal/") {
			continue
		}
		for _, d := range gf.file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || !fd.Name.IsExported() {
				continue
			}
			declared++
			id := gf.pkg + "." + fd.Name.Name
			_, keep := keptUnreferenced[id]
			kept[id] = keep
			if !refs[id] && !keep {
				dead = append(dead, id)
			}
		}
	}
	if declared < 100 {
		t.Fatalf("only %d exported funcs found under internal/; wrong directory?", declared)
	}
	sort.Strings(dead)
	for _, id := range dead {
		t.Errorf("%s: exported, but no non-test file references it", id)
	}
	for id := range keptUnreferenced {
		switch {
		case !kept[id]:
			t.Errorf("%s is on the keep list but is no exported func under internal/; drop the entry", id)
		case refs[id]:
			t.Errorf("%s is on the keep list but a non-test file references it; drop the entry", id)
		}
	}
}

// receiverType names a method's receiver type, without pointer or type
// parameters.
func receiverType(fd *ast.FuncDecl) string {
	x := fd.Recv.List[0].Type
	if star, ok := x.(*ast.StarExpr); ok {
		x = star.X
	}
	switch r := x.(type) {
	case *ast.IndexExpr:
		x = r.X
	case *ast.IndexListExpr:
		x = r.X
	}
	if id, ok := x.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}

// methodSelections collects the names the files select as methods or
// fields: x.Name, on any x except an identifier naming one of the
// file's imports (its import name, or the last element of its path),
// which is a package-qualified identifier such as sort.Stable.
func methodSelections(files []goFile) map[string]bool {
	selected := map[string]bool{}
	for _, gf := range files {
		imports := map[string]bool{}
		for _, imp := range gf.file.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			imports[path.Base(p)] = true
			if imp.Name != nil {
				imports[imp.Name.Name] = true
			}
		}
		ast.Inspect(gf.file, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); !ok || !imports[x.Name] {
					selected[sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	return selected
}

// TestMethodSelectionsSkipPackageQualifiers: in a file that imports
// sort, sort.Stable(x) selects no method, while m.Stable() does.
func TestMethodSelectionsSkipPackageQualifiers(t *testing.T) {
	parse := func(src string) []goFile {
		f, err := parser.ParseFile(token.NewFileSet(), "x.go", src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		return []goFile{{pkg: "x", file: f}}
	}
	const head = "package x\n\nimport (\n\t\"sort\"\n\tst \"strings\"\n)\n\n"
	got := methodSelections(parse(head + "func f(x sort.Interface, m M) {\n\tsort.Stable(x)\n\t_ = st.ToUpper(\"a\")\n\tm.Stable()\n}\n"))
	if !got["Stable"] {
		t.Error("m.Stable() is not counted as a method selection")
	}
	for _, name := range []string{"Interface", "ToUpper"} {
		if got[name] {
			t.Errorf("a package-qualified %s is counted as a method selection", name)
		}
	}
	if got := methodSelections(parse(head + "func f(x sort.Interface) {\n\tsort.Stable(x)\n\t_ = st.ToUpper(\"a\")\n}\n")); got["Stable"] {
		t.Error("sort.Stable(x) alone is counted as a method selection")
	}
}

// TestNoDeadExportedMethods fails on any exported method under
// internal/ whose name no non-test file of the repository (the module
// and bench/coplotbench) selects — x.Name, on any x but an imported
// package's name (methodSelections) — unless the
// standard library calls it through an interface (interfaceMethods) or
// keptUnselected names it. The check is by name, so it misses a dead
// method that shares its name with a live one; what it finds is surely
// dead.
func TestNoDeadExportedMethods(t *testing.T) {
	files, module := moduleFiles(t)
	selected := methodSelections(files)

	var dead []string
	declared := 0
	kept := map[string]bool{}
	for _, gf := range files {
		if !strings.HasPrefix(gf.pkg, module+"/internal/") {
			continue
		}
		for _, d := range gf.file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || !fd.Name.IsExported() {
				continue
			}
			declared++
			name := fd.Name.Name
			id := gf.pkg + "." + receiverType(fd) + "." + name
			_, keep := keptUnselected[id]
			kept[id] = keep
			if !selected[name] && !interfaceMethods[name] && !keep {
				dead = append(dead, id)
			}
		}
	}
	if declared < 100 {
		t.Fatalf("only %d exported methods found under internal/; wrong directory?", declared)
	}
	sort.Strings(dead)
	for _, id := range dead {
		t.Errorf("%s: exported, but no non-test file selects a method of that name", id)
	}
	for id := range keptUnselected {
		name := id[strings.LastIndex(id, ".")+1:]
		switch {
		case !kept[id]:
			t.Errorf("%s is on the keep list but is no exported method under internal/; drop the entry", id)
		case selected[name]:
			t.Errorf("%s is on the keep list but a non-test file selects %s; drop the entry", id, name)
		}
	}
}
