// Package wire reads and writes the HTTP bodies that clarifyd and clarify-lb
// exchange. Both tiers hold each body whole in memory, so a body is read
// into one buffer sized by its Content-Length (one declared past 64 KiB, or
// of unknown length, grows as it arrives), under a bound that refuses a
// longer body instead of truncating it, and every JSON reply is written
// compact, in one write, with its Content-Length.
package wire

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// TooLargeError reports a body longer than its bound. A server answers it
// with 413 Request Entity Too Large.
type TooLargeError struct {
	// Limit is the bound, in bytes.
	Limit int64
}

func (e *TooLargeError) Error() string {
	return fmt.Sprintf("body exceeds %d bytes", e.Limit)
}

// maxUpfront bounds what ReadBody allocates on a declared length alone,
// before the bytes arrive: a client that declares a body of the full bound
// and sends nothing must not make the server hold that much per connection.
const maxUpfront = 64 << 10

// ReadBody reads body to its end and returns it, or a *TooLargeError for a
// body of more than limit bytes. length is the declared Content-Length, -1
// when unknown (a chunked body). A declared body is refused before any byte
// is read when it is too long, and otherwise read into one buffer of its
// size when that is at most maxUpfront; a longer or undeclared one grows as
// it arrives and is refused as soon as it passes the bound.
func ReadBody(body io.Reader, length, limit int64) ([]byte, error) {
	if length > limit {
		return nil, &TooLargeError{Limit: limit}
	}
	if length == 0 {
		return nil, nil
	}
	// The spare byte lets a reader that does not return io.EOF with its
	// last bytes return it on the next read without growing the buffer.
	size := min(length+1, maxUpfront)
	if length < 0 {
		size = 512
	}
	buf := make([]byte, 0, size)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		room := buf[len(buf):cap(buf)]
		if left := limit + 1 - int64(len(buf)); int64(len(room)) > left {
			room = room[:left]
		}
		n, err := body.Read(room)
		buf = buf[:len(buf)+n]
		if int64(len(buf)) > limit {
			return nil, &TooLargeError{Limit: limit}
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// WriteJSON answers with v as compact JSON and a trailing newline, framed
// by its Content-Length and written in one call. A value that does not
// encode is answered 500 with an {"error": ...} body instead.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		data, _ = json.Marshal(map[string]string{"error": "encode reply: " + err.Error()})
	}
	data = append(data, '\n')
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(status)
	w.Write(data)
}
