package llm

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/clarifynet/clarify/chaoshttp"
)

const chatOK = `{"choices":[{"message":{"role":"assistant","content":"route-map X permit 10\n"}}]}`

// retryServer fails the first n requests with the given status, then
// succeeds.
func retryServer(t *testing.T, failures int, status int, count *atomic.Int64) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := count.Add(1)
		if n <= int64(failures) {
			w.WriteHeader(status)
			w.Write([]byte(`{"error":{"message":"overloaded"}}`))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(chatOK))
	}))
	t.Cleanup(srv.Close)
	return srv
}

func TestHTTPClientRetriesTransientFailures(t *testing.T) {
	for _, status := range []int{http.StatusTooManyRequests, http.StatusInternalServerError, http.StatusServiceUnavailable} {
		var count atomic.Int64
		srv := retryServer(t, 2, status, &count)
		c := &HTTPClient{BaseURL: srv.URL, Model: "m", MaxRetries: 3, RetryBaseDelay: time.Millisecond}
		resp, err := c.Complete(context.Background(), Request{Task: TaskSynthRouteMap,
			Messages: []Message{{Role: RoleUser, Content: "x"}}})
		if err != nil {
			t.Fatalf("status %d: %v after %d attempts", status, err, count.Load())
		}
		if !strings.Contains(resp.Content, "route-map X") {
			t.Errorf("status %d: unexpected content %q", status, resp.Content)
		}
		if count.Load() != 3 {
			t.Errorf("status %d: %d attempts, want 3", status, count.Load())
		}
	}
}

func TestHTTPClientRetryBudgetExhausted(t *testing.T) {
	var count atomic.Int64
	srv := retryServer(t, 1000, http.StatusInternalServerError, &count)
	c := &HTTPClient{BaseURL: srv.URL, Model: "m", MaxRetries: 2, RetryBaseDelay: time.Millisecond}
	_, err := c.Complete(context.Background(), Request{Task: TaskSynthRouteMap,
		Messages: []Message{{Role: RoleUser, Content: "x"}}})
	if err == nil {
		t.Fatal("want error after exhausting retries")
	}
	if count.Load() != 3 { // initial attempt + 2 retries
		t.Errorf("%d attempts, want 3", count.Load())
	}
}

func TestHTTPClientDoesNotRetryClientErrors(t *testing.T) {
	var count atomic.Int64
	srv := retryServer(t, 1000, http.StatusBadRequest, &count)
	c := &HTTPClient{BaseURL: srv.URL, Model: "m", MaxRetries: 3, RetryBaseDelay: time.Millisecond}
	_, err := c.Complete(context.Background(), Request{Task: TaskSynthRouteMap,
		Messages: []Message{{Role: RoleUser, Content: "x"}}})
	if err == nil {
		t.Fatal("want error on 400")
	}
	if count.Load() != 1 {
		t.Errorf("%d attempts, want 1 (4xx is not retryable)", count.Load())
	}
}

// TestHTTPClientDoesNotRetryRefusedConnection: nothing listens, so the
// request was never sent, and the client fails at once rather than
// sleeping through its retry budget.
func TestHTTPClientDoesNotRetryRefusedConnection(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()
	c := &HTTPClient{BaseURL: "http://" + ln.Addr().String(), Model: "m", MaxRetries: 3}
	start := time.Now()
	_, err = c.Complete(context.Background(), Request{Task: TaskClassify,
		Messages: []Message{{Role: RoleUser, Content: "x"}}})
	if elapsed := time.Since(start); !errors.Is(err, syscall.ECONNREFUSED) || elapsed >= 200*time.Millisecond {
		t.Errorf("Complete against a refused port = %v after %s; want ECONNREFUSED within 200ms", err, elapsed)
	}
}

// TestHTTPClientRetriesConnectionReset: a reset connection may have lost a
// request the endpoint would have served, so it is retried.
func TestHTTPClientRetriesConnectionReset(t *testing.T) {
	var count atomic.Int64
	srv := retryServer(t, 0, http.StatusOK, &count)
	rt := chaoshttp.New(chaoshttp.Plan{Reset: 1}, srv.Client().Transport)
	c := &HTTPClient{BaseURL: srv.URL, Model: "m", HTTP: &http.Client{Transport: rt},
		MaxRetries: 2, RetryBaseDelay: time.Millisecond}
	_, err := c.Complete(context.Background(), Request{Task: TaskClassify,
		Messages: []Message{{Role: RoleUser, Content: "x"}}})
	if !errors.Is(err, syscall.ECONNRESET) || rt.Counts().Total != 3 {
		t.Errorf("Complete = %v after %d attempts; want ECONNRESET after 3", err, rt.Counts().Total)
	}
}

func TestHTTPClientHonorsRetryAfter(t *testing.T) {
	var count atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if count.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(chatOK))
	}))
	defer srv.Close()
	// A huge base delay would stall the test; the Retry-After: 0 hint must
	// override it.
	c := &HTTPClient{BaseURL: srv.URL, Model: "m", MaxRetries: 1, RetryBaseDelay: time.Hour}
	start := time.Now()
	if _, err := c.Complete(context.Background(), Request{Task: TaskSynthRouteMap,
		Messages: []Message{{Role: RoleUser, Content: "x"}}}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("retry took %s; Retry-After hint ignored", elapsed)
	}
}

func TestHTTPClientRetrySleepIsContextAware(t *testing.T) {
	var count atomic.Int64
	srv := retryServer(t, 1000, http.StatusTooManyRequests, &count)
	c := &HTTPClient{BaseURL: srv.URL, Model: "m", MaxRetries: 5, RetryBaseDelay: 10 * time.Second}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Complete(ctx, Request{Task: TaskSynthRouteMap,
		Messages: []Message{{Role: RoleUser, Content: "x"}}})
	if err == nil {
		t.Fatal("want error when context expires mid-backoff")
	}
	if !strings.Contains(err.Error(), "giving up") {
		t.Errorf("error should report abandoned retries: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("backoff ignored context cancellation (%s)", elapsed)
	}
}

func TestRetryDelayClampsRetryAfterHeader(t *testing.T) {
	c := &HTTPClient{RetryBaseDelay: time.Millisecond}
	cases := []struct {
		name  string
		rerr  *retryableError
		want  time.Duration
		exact bool
	}{
		{name: "hour-long-hint-clamped", exact: true, want: maxRetryDelay,
			rerr: &retryableError{retryAfter: time.Hour, hasRetryAfter: true}},
		{name: "zero-hint-immediate", exact: true, want: 0,
			rerr: &retryableError{retryAfter: 0, hasRetryAfter: true}},
		{name: "modest-hint-honored", exact: true, want: 2 * time.Second,
			rerr: &retryableError{retryAfter: 2 * time.Second, hasRetryAfter: true}},
		{name: "no-hint-uses-backoff", exact: false, want: maxRetryDelay,
			rerr: &retryableError{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := c.retryDelay(0, tc.rerr)
			if tc.exact && got != tc.want {
				t.Errorf("retryDelay = %v, want %v", got, tc.want)
			}
			if got > maxRetryDelay {
				t.Errorf("retryDelay = %v exceeds the %v cap", got, maxRetryDelay)
			}
		})
	}
}
