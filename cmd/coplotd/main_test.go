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
