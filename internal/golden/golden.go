// Package golden compares what a program prints with a checked-in golden
// file, so tests pin every witness, question and table that the examples and
// clarify-eval print.
package golden

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// Stdout runs f with os.Stdout redirected to a temporary file and returns
// what f wrote there.
func Stdout(t testing.TB, f func()) []byte {
	t.Helper()
	tmp, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	saved := os.Stdout
	os.Stdout = tmp
	defer func() { os.Stdout = saved }()
	f()
	out, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// Check compares got with testdata/name byte for byte. After an intended
// change, replace the golden file with the output the failure prints.
func Check(t testing.TB, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from testdata/%s; got:\n%s", name, got)
	}
}
