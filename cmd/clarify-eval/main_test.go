package main

import (
	"bytes"
	"testing"

	"github.com/clarifynet/clarify/internal/golden"
)

// TestAllGolden pins every table `clarify-eval -exp all` prints, byte for
// byte.
func TestAllGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "all"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	golden.Check(t, "all.golden", stdout.Bytes())
}
