package chaoshttp

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"
	"time"
)

// backend is a healthy endpoint returning a fixed JSON body.
func backend(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"choices":[{"message":{"role":"assistant","content":"ok"}}]}`)
	}))
	t.Cleanup(srv.Close)
	return srv
}

func get(t *testing.T, client *http.Client, url string) (*http.Response, error) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	return client.Do(req)
}

func TestDeterministicFaultSequence(t *testing.T) {
	plan := Plan{Seed: 99, Reset: 0.3, HTTP503: 0.3, Garbage: 0.2}
	srv := backend(t)
	run := func() Counts {
		rt := New(plan, nil)
		client := &http.Client{Transport: rt, Timeout: 5 * time.Second}
		for i := 0; i < 200; i++ {
			resp, err := get(t, client, srv.URL)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
		return rt.Counts()
	}
	a, b := run(), run()
	if a.Total != 200 || b.Total != 200 {
		t.Fatalf("totals = %d, %d", a.Total, b.Total)
	}
	if a.Passed != b.Passed {
		t.Errorf("passed differ: %d vs %d", a.Passed, b.Passed)
	}
	for k, v := range a.Injected {
		if b.Injected[k] != v {
			t.Errorf("fault %s: %d vs %d", k, v, b.Injected[k])
		}
	}
	// Sanity: with a 0.8 budget over 200 requests, injections must dominate.
	if a.Passed > 100 {
		t.Errorf("passed = %d, implausibly high for budget 0.8", a.Passed)
	}
}

func TestResetFault(t *testing.T) {
	rt := New(Plan{Reset: 1}, nil)
	client := &http.Client{Transport: rt}
	_, err := get(t, client, "http://unreachable.invalid/x")
	if err == nil {
		t.Fatal("want transport error")
	}
	if !errors.Is(err, syscall.ECONNRESET) {
		t.Errorf("error = %v, want ECONNRESET", err)
	}
}

func TestHTTP429CarriesRetryAfter(t *testing.T) {
	rt := New(Plan{HTTP429: 1, RetryAfterSeconds: 3}, nil)
	client := &http.Client{Transport: rt}
	resp, err := get(t, client, "http://unreachable.invalid/x")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Errorf("Retry-After = %q, want 3", got)
	}
}

func TestHTTP503(t *testing.T) {
	rt := New(Plan{HTTP503: 1}, nil)
	client := &http.Client{Transport: rt}
	resp, err := get(t, client, "http://unreachable.invalid/x")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status = %d, want 503", resp.StatusCode)
	}
}

func TestGarbageBodyIsNotJSON(t *testing.T) {
	rt := New(Plan{Garbage: 1}, nil)
	client := &http.Client{Transport: rt}
	resp, err := get(t, client, "http://unreachable.invalid/x")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d, want 200", resp.StatusCode)
	}
	if strings.HasPrefix(strings.TrimSpace(string(body)), "{") {
		t.Errorf("garbage body looks like JSON: %q", body)
	}
}

func TestTruncateCutsRealBody(t *testing.T) {
	srv := backend(t)
	rt := New(Plan{Truncate: 1}, nil)
	client := &http.Client{Transport: rt}
	resp, err := get(t, client, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	full := `{"choices":[{"message":{"role":"assistant","content":"ok"}}]}`
	if len(body) != len(full)/2 {
		t.Errorf("truncated body length = %d, want %d", len(body), len(full)/2)
	}
}

func TestStallRespectsContext(t *testing.T) {
	rt := New(Plan{Stall: 1, StallDelay: 10 * time.Second}, nil)
	client := &http.Client{Transport: rt}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, "http://unreachable.invalid/x", nil)
	start := time.Now()
	_, err := client.Do(req)
	if err == nil {
		t.Fatal("want error from stalled request")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("stall ignored context: took %v", elapsed)
	}
}

func TestStallElapsesWithoutContext(t *testing.T) {
	rt := New(Plan{Stall: 1, StallDelay: 10 * time.Millisecond}, nil)
	client := &http.Client{Transport: rt}
	_, err := get(t, client, "http://unreachable.invalid/x")
	if err == nil || !errors.Is(err, syscall.ECONNRESET) {
		t.Errorf("error = %v, want stall->ECONNRESET", err)
	}
}

func TestLatencyDelaysPassingRequests(t *testing.T) {
	srv := backend(t)
	rt := New(Plan{Latency: 1, LatencyDelay: 40 * time.Millisecond}, nil)
	client := &http.Client{Transport: rt}
	start := time.Now()
	resp, err := get(t, client, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Errorf("latency spike not applied: %v", elapsed)
	}
	c := rt.Counts()
	if c.LatencySpikes != 1 || c.Passed != 1 {
		t.Errorf("counts = %+v", c)
	}
}

func TestSetPlanHeals(t *testing.T) {
	srv := backend(t)
	rt := New(Plan{Reset: 1}, nil)
	client := &http.Client{Transport: rt}
	if _, err := get(t, client, srv.URL); err == nil {
		t.Fatal("want reset before healing")
	}
	rt.SetPlan(Plan{})
	resp, err := get(t, client, srv.URL)
	if err != nil {
		t.Fatalf("healed transport failed: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d, want 200", resp.StatusCode)
	}
}

func TestCountsString(t *testing.T) {
	rt := New(Plan{Reset: 1}, nil)
	client := &http.Client{Transport: rt}
	get(t, client, "http://unreachable.invalid/x")
	s := rt.Counts().String()
	if !strings.Contains(s, "total=1") || !strings.Contains(s, "reset=1") {
		t.Errorf("counts string = %q", s)
	}
}
