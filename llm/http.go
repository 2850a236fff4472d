package llm

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"syscall"
	"time"

	"github.com/clarifynet/clarify/obs"
)

// HTTPClient talks to an OpenAI-compatible chat-completions endpoint
// (POST {BaseURL}/chat/completions). It exists so the pipeline can run
// against a real model; the repository's experiments all use SimLLM.
//
// Transient endpoint failures (429, 5xx and transport errors other than a
// refused connection) are retried with exponential backoff and jitter so a
// daemon serving many sessions does not fail whole updates on one flaky
// response. The client is stateless and safe for concurrent use.
type HTTPClient struct {
	// BaseURL is the API root, e.g. "https://api.openai.com/v1".
	BaseURL string
	// Model is the model identifier, e.g. "gpt-4".
	Model string
	// APIKey, when non-empty, is sent as a Bearer token.
	APIKey string
	// HTTP is the underlying client; a 60-second-timeout client is used when
	// nil.
	HTTP *http.Client
	// MaxRetries is the number of re-attempts after a retryable failure
	// (429 or 5xx status, or a transport error other than a refused
	// connection); 0 disables retries.
	MaxRetries int
	// RetryBaseDelay seeds the exponential backoff (default 500 ms; the
	// delay doubles per attempt, ±50% jitter, capped at 30 s). A
	// Retry-After header from the endpoint overrides the computed delay but
	// is clamped to the same 30 s cap, so a hostile or misconfigured
	// endpoint cannot park a worker for an hour.
	RetryBaseDelay time.Duration
}

// maxRetryDelay caps every backoff sleep — computed or header-supplied.
const maxRetryDelay = 30 * time.Second

// chatRequest is the request body. Temperature is always 0, for
// reproducible synthesis.
type chatRequest struct {
	Model       string    `json:"model"`
	Messages    []Message `json:"messages"`
	Temperature float64   `json:"temperature"`
}

type chatResponse struct {
	Choices []struct {
		Message Message `json:"message"`
	} `json:"choices"`
	Error *struct {
		Message string `json:"message"`
	} `json:"error,omitempty"`
}

// retryableError marks a failure worth re-attempting.
type retryableError struct {
	err           error
	retryAfter    time.Duration
	hasRetryAfter bool // the endpoint sent an explicit Retry-After hint
}

func (e *retryableError) Error() string { return e.err.Error() }
func (e *retryableError) Unwrap() error { return e.err }

// Complete implements Client.
func (c *HTTPClient) Complete(ctx context.Context, req Request) (Response, error) {
	msgs := make([]Message, 0, len(req.Messages)+1)
	if req.System != "" {
		msgs = append(msgs, Message{Role: RoleSystem, Content: req.System})
	}
	msgs = append(msgs, req.Messages...)
	body, err := json.Marshal(chatRequest{Model: c.Model, Messages: msgs})
	if err != nil {
		return Response{}, fmt.Errorf("llm: marshal request: %w", err)
	}
	sp := obs.SpanFromContext(ctx)
	var lastErr error
	var totalBackoff time.Duration
	for attempt := 0; ; attempt++ {
		resp, err := c.doOnce(ctx, body)
		if err == nil {
			if attempt > 0 {
				sp.SetInt("llm-retries", int64(attempt))
				sp.SetDur("llm-backoff", totalBackoff)
			}
			return resp, nil
		}
		rerr, retryable := err.(*retryableError)
		if !retryable || attempt >= c.MaxRetries {
			if attempt > 0 {
				sp.SetInt("llm-retries", int64(attempt))
				sp.SetDur("llm-backoff", totalBackoff)
				err = fmt.Errorf("llm: giving up after %d attempt(s) and %s of backoff: %w",
					attempt+1, totalBackoff.Round(time.Millisecond), err)
			}
			return Response{}, err
		}
		lastErr = err
		delay := c.retryDelay(attempt, rerr)
		if err := sleepCtx(ctx, delay); err != nil {
			sp.SetInt("llm-retries", int64(attempt))
			sp.SetDur("llm-backoff", totalBackoff)
			return Response{}, fmt.Errorf("llm: giving up after %d attempt(s): %w (last error: %v)",
				attempt+1, err, lastErr)
		}
		totalBackoff += delay
	}
}

// doOnce issues one request; retryable failures are wrapped in
// *retryableError.
func (c *HTTPClient) doOnce(ctx context.Context, body []byte) (Response, error) {
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/chat/completions", bytes.NewReader(body))
	if err != nil {
		return Response{}, fmt.Errorf("llm: build request: %w", err)
	}
	httpReq.Header.Set("Content-Type", "application/json")
	if c.APIKey != "" {
		httpReq.Header.Set("Authorization", "Bearer "+c.APIKey)
	}
	client := c.HTTP
	if client == nil {
		client = &http.Client{Timeout: 60 * time.Second}
	}
	resp, err := client.Do(httpReq)
	if err != nil {
		// A refused connection means nothing listens at the endpoint, so
		// the request was never sent: a retry would only delay the
		// fallback.
		if ctx.Err() != nil || errors.Is(err, syscall.ECONNREFUSED) {
			return Response{}, fmt.Errorf("llm: request failed: %w", err)
		}
		// Other transport-level failures (connection reset, DNS blip) are
		// transient by nature.
		return Response{}, &retryableError{err: fmt.Errorf("llm: request failed: %w", err)}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return Response{}, &retryableError{err: fmt.Errorf("llm: read response: %w", err)}
	}
	if resp.StatusCode != http.StatusOK {
		serr := fmt.Errorf("llm: endpoint returned %s: %s", resp.Status, truncate(data, 200))
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500 {
			after, ok := parseRetryAfter(resp.Header.Get("Retry-After"))
			return Response{}, &retryableError{err: serr, retryAfter: after, hasRetryAfter: ok}
		}
		return Response{}, serr
	}
	var out chatResponse
	if err := json.Unmarshal(data, &out); err != nil {
		return Response{}, fmt.Errorf("llm: decode response: %w", err)
	}
	if out.Error != nil {
		return Response{}, fmt.Errorf("llm: endpoint error: %s", out.Error.Message)
	}
	if len(out.Choices) == 0 {
		return Response{}, fmt.Errorf("llm: endpoint returned no choices")
	}
	return Response{Content: out.Choices[0].Message.Content}, nil
}

// retryDelay picks the sleep before re-attempt attempt+1: the endpoint's
// Retry-After hint when present (clamped to maxRetryDelay), otherwise the
// computed exponential backoff.
func (c *HTTPClient) retryDelay(attempt int, rerr *retryableError) time.Duration {
	if rerr.hasRetryAfter {
		if rerr.retryAfter > maxRetryDelay {
			return maxRetryDelay
		}
		return rerr.retryAfter
	}
	return c.backoff(attempt)
}

// backoff computes the delay before re-attempt attempt+1: exponential with
// ±50% jitter, capped at 30 s.
func (c *HTTPClient) backoff(attempt int) time.Duration {
	base := c.RetryBaseDelay
	if base <= 0 {
		base = 500 * time.Millisecond
	}
	d := base << uint(attempt)
	if d > maxRetryDelay || d <= 0 {
		d = maxRetryDelay
	}
	// Jitter in [0.5, 1.5): decorrelates retry storms across concurrent
	// workers hitting the same rate-limited endpoint.
	return time.Duration(float64(d) * (0.5 + rand.Float64()))
}

// parseRetryAfter handles the delay-seconds form of the header (the HTTP
// date form is rare on API endpoints and falls back to the computed
// backoff). An explicit "0" means retry immediately.
func parseRetryAfter(v string) (time.Duration, bool) {
	if v == "" {
		return 0, false
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0, false
	}
	return time.Duration(secs) * time.Second, true
}

// sleepCtx waits d or until ctx is cancelled.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func truncate(b []byte, n int) string {
	if len(b) <= n {
		return string(b)
	}
	return string(b[:n]) + "..."
}

var _ Client = (*HTTPClient)(nil)
