package main

import (
	"testing"

	"github.com/clarifynet/clarify/internal/golden"
)

// TestOutputGolden pins everything the example prints, byte for byte.
func TestOutputGolden(t *testing.T) {
	golden.Check(t, "output.golden", golden.Stdout(t, main))
}
