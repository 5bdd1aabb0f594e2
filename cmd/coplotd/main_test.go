package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMain runs the server itself when COPLOTD_MAIN_ARGS is set (one
// argument per line), so a test can check main's exit status in a
// child process.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("COPLOTD_MAIN_ARGS"); ok {
		os.Args = append([]string{"coplotd"}, strings.Split(args, "\n")...)
		main()
	}
	os.Exit(m.Run())
}

// TestNegativeLandmarksIsUsageError: a negative -landmarks exits 2
// naming the flag before the server starts, instead of serving with it.
func TestNegativeLandmarksIsUsageError(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0])
	cmd.Env = append(os.Environ(), "COPLOTD_MAIN_ARGS=-landmarks\n-5\n-addr\n127.0.0.1:0\n-corpus-jobs\n-1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "-landmarks") {
		t.Fatalf("coplotd -landmarks -5: %v\n%s", err, out)
	}
}

// TestFlagTableMatchesOperations: the flags coplotd registers are
// exactly the flags OPERATIONS.md §3 documents, so a removed flag
// cannot linger in the table and a new one cannot go undocumented.
func TestFlagTableMatchesOperations(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0])
	cmd.Env = append(os.Environ(), "COPLOTD_MAIN_ARGS=-h")
	usage, _ := cmd.CombinedOutput() // -h exits after printing the flag defaults
	registered := map[string]bool{}
	for _, line := range strings.Split(string(usage), "\n") {
		// The test binary's own -test.* flags share the flag set.
		if rest, ok := strings.CutPrefix(line, "  -"); ok && !strings.HasPrefix(rest, "test.") {
			registered[strings.Fields(rest)[0]] = true
		}
	}
	if len(registered) < 10 {
		t.Fatalf("only %d flags in the usage output:\n%s", len(registered), usage)
	}

	ops, err := os.ReadFile("../../OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(ops), "\n## 3. Flag reference\n")
	if !ok {
		t.Fatal("OPERATIONS.md has no \"## 3. Flag reference\" section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	documented := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "| `-") {
			continue
		}
		first, _, _ := strings.Cut(line[1:], "|") // the flag column
		for _, tok := range strings.Split(first, "`")[1:] {
			if name, ok := strings.CutPrefix(tok, "-"); ok {
				documented[strings.Fields(name)[0]] = true
			}
		}
	}
	for name := range registered {
		if !documented[name] {
			t.Errorf("flag -%s is registered but missing from OPERATIONS.md §3", name)
		}
	}
	for name := range documented {
		if !registered[name] {
			t.Errorf("OPERATIONS.md §3 documents -%s, which coplotd does not register", name)
		}
	}
}
