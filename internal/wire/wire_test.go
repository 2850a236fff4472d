package wire

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

// TestReadBody: a declared body is read into one buffer of its size, an
// undeclared one grows as it arrives, either is refused with a
// *TooLargeError once it passes the bound, and a read error is returned.
// A declared length allocates at most maxUpfront before the bytes arrive.
func TestReadBody(t *testing.T) {
	long := strings.Repeat("x", 5000)
	huge := strings.Repeat("x", 3*maxUpfront)
	for _, tc := range []struct {
		name          string
		body          io.Reader
		length, limit int64
		want          string
		tooLarge      bool
	}{
		{name: "declared", body: strings.NewReader(long), length: 5000, limit: 5000, want: long},
		{name: "declared, one byte at a time", body: iotest.OneByteReader(strings.NewReader("hello")), length: 5, limit: 5, want: "hello"},
		{name: "declared over maxUpfront", body: strings.NewReader(huge), length: 3 * maxUpfront, limit: 1 << 20, want: huge},
		{name: "undeclared", body: strings.NewReader(long), length: -1, limit: 5000, want: long},
		{name: "undeclared, one byte at a time", body: iotest.OneByteReader(strings.NewReader(long)), length: -1, limit: 5000, want: long},
		{name: "declared empty", body: strings.NewReader(""), length: 0, limit: 10},
		{name: "undeclared empty", body: strings.NewReader(""), length: -1, limit: 10},
		{name: "declared over the bound", body: strings.NewReader(long), length: 5000, limit: 4999, tooLarge: true},
		{name: "undeclared over the bound", body: strings.NewReader(long), length: -1, limit: 4999, tooLarge: true},
		{name: "declared length below the data", body: strings.NewReader(long), length: 10, limit: 20, tooLarge: true},
	} {
		got, err := ReadBody(tc.body, tc.length, tc.limit)
		var tle *TooLargeError
		switch {
		case tc.tooLarge:
			if !errors.As(err, &tle) || tle.Limit != tc.limit || !strings.Contains(err.Error(), strconv.FormatInt(tc.limit, 10)) {
				t.Errorf("%s: got %d bytes, %v; want a TooLargeError naming %d", tc.name, len(got), err, tc.limit)
			}
		case err != nil || string(got) != tc.want:
			t.Errorf("%s: got %d bytes, %v; want %d bytes", tc.name, len(got), err, len(tc.want))
		case tc.length > 0 && tc.length < maxUpfront && int64(cap(got)) != tc.length+1:
			t.Errorf("%s: buffer capacity %d for a declared %d-byte body, want one buffer of %d", tc.name, cap(got), tc.length, tc.length+1)
		}
	}
	// A body declared at a 32 MiB bound that never arrives allocates
	// maxUpfront, not the declared length.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := ReadBody(iotest.ErrReader(io.ErrUnexpectedEOF), 32<<20, 32<<20)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) || got != nil {
		t.Errorf("a declared body that never arrived gave %d bytes, %v; want %v", len(got), err, io.ErrUnexpectedEOF)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 2*maxUpfront {
		t.Errorf("a declared 32 MiB body that never arrived allocated %d bytes, want at most %d", n, 2*maxUpfront)
	}
	boom := errors.New("boom")
	if _, err := ReadBody(iotest.ErrReader(boom), -1, 10); !errors.Is(err, boom) {
		t.Errorf("a failing reader gave %v, want %v", err, boom)
	}
}

// TestWriteJSON: a reply is compact JSON with a trailing newline, framed by
// its Content-Length; a value that does not encode is answered 500 with an
// error body.
func TestWriteJSON(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusCreated, map[string]any{"id": "s1", "n": []int{1, 2}})
	if want := "{\"id\":\"s1\",\"n\":[1,2]}\n"; rec.Code != http.StatusCreated || rec.Body.String() != want {
		t.Errorf("reply %d %q, want 201 %q", rec.Code, rec.Body.String(), want)
	}
	if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(rec.Body.Len()) {
		t.Errorf("Content-Length %q for a %d-byte body", got, rec.Body.Len())
	}
	if got := rec.Header().Get("Content-Type"); got != "application/json" {
		t.Errorf("Content-Type %q, want application/json", got)
	}

	rec = httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, math.NaN())
	var e struct{ Error string }
	if rec.Code != http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Error == "" {
		t.Errorf("an unencodable value gave %d %q, want 500 with an error", rec.Code, rec.Body.String())
	}
}
