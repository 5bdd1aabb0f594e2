package doccheck

import (
	"os"
	"path/filepath"
	"testing"
)

// TestEnginePackagesFullyDocumented is the godoc-hygiene gate of the
// infrastructure layers: every exported identifier in internal/engine,
// internal/obs, internal/store, internal/cluster and internal/corpus
// (types, funcs, methods, consts, struct fields, interface methods)
// carries a doc comment.
func TestEnginePackagesFullyDocumented(t *testing.T) {
	for _, dir := range []string{
		filepath.Join("..", "engine"),
		filepath.Join("..", "obs"),
		filepath.Join("..", "store"),
		filepath.Join("..", "cluster"),
		filepath.Join("..", "corpus"),
		".", // hold this package to its own bar
	} {
		violations, err := Check(dir, Full)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range violations {
			t.Error(v)
		}
	}
}

// TestCommandsHavePackageComments requires a package comment (the CLI
// usage doc) on every cmd/* package.
func TestCommandsHavePackageComments(t *testing.T) {
	cmdRoot := filepath.Join("..", "..", "cmd")
	entries, err := os.ReadDir(cmdRoot)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		checked++
		violations, err := Check(filepath.Join(cmdRoot, e.Name()), PackageDoc)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range violations {
			t.Error(v)
		}
	}
	if checked < 6 {
		t.Fatalf("only %d cmd packages found; wrong directory?", checked)
	}
}

// TestCheckFlagsViolations verifies the checker actually detects
// missing docs, so a silent parser regression cannot fake a green gate.
func TestCheckFlagsViolations(t *testing.T) {
	dir := t.TempDir()
	src := `package bad

type Undocumented struct {
	Field int
}

func Exported() {}

const Answer = 42

var Counter int

type Iface interface {
	Method()
}
`
	if err := os.WriteFile(filepath.Join(dir, "bad.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	violations, err := Check(dir, Full)
	if err != nil {
		t.Fatal(err)
	}
	// package comment, Undocumented, Field, Exported, Answer, Counter,
	// Iface, Method.
	if len(violations) != 8 {
		t.Fatalf("violations = %d:\n%v", len(violations), violations)
	}
}

// TestCheckAcceptsDocumentedCode verifies the checker honors group
// docs, line comments, and unexported identifiers.
func TestCheckAcceptsDocumentedCode(t *testing.T) {
	dir := t.TempDir()
	src := `// Package good is fully documented.
package good

// Names of the modes.
const (
	A = iota
	B
)

// T is documented.
type T struct {
	// F is documented.
	F int
	G int // G uses a line comment.
	h int
}

// M is documented.
func (t *T) M() {}

func internal() {}
`
	if err := os.WriteFile(filepath.Join(dir, "good.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	violations, err := Check(dir, Full)
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 0 {
		t.Fatalf("false positives:\n%v", violations)
	}
}

// TestCheckFlagTable: a ✓ for a flag the usage output does not list is
// a violation; a registered flag and a blank cell are not; a missing
// column is an error.
func TestCheckFlagTable(t *testing.T) {
	readme := filepath.Join(t.TempDir(), "README.md")
	table := "# x\n\n### Engine flags\n\n" +
		"| flag | `a` | `b` | meaning |\n|---|---|---|---|\n" +
		"| `-jobs N` | ✓ | ✓ | workers |\n" +
		"| `-gone DIR` | ✓ (default on) | | deleted |\n" +
		"| `-seed N` | | ✓ | seed \\| more |\n\nprose | with a pipe\n"
	if err := os.WriteFile(readme, []byte(table), 0o644); err != nil {
		t.Fatal(err)
	}
	usage := []byte("Usage of a:\n  -jobs int\n    \tworkers\n")
	got, err := CheckFlagTable(readme, "a", usage)
	if err != nil {
		t.Fatal(err)
	}
	if want := readme + ": the engine-flags table marks -gone for a, which does not register it"; len(got) != 1 || got[0] != want {
		t.Fatalf("violations %q, want [%q]", got, want)
	}
	if _, err := CheckFlagTable(readme, "c", usage); err == nil {
		t.Fatal("a missing column was accepted")
	}
}

func TestCheckMissingDir(t *testing.T) {
	if _, err := Check(filepath.Join(t.TempDir(), "nope"), Full); err == nil {
		t.Fatal("missing directory accepted")
	}
}
