package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"github.com/clarifynet/clarify"
	"github.com/clarifynet/clarify/internal/wire"
	"github.com/clarifynet/clarify/obs"
	"github.com/clarifynet/clarify/snapshot"
)

// Client is the Go client for a running clarifyd. It is safe for concurrent
// use by multiple goroutines.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTP is the underlying client; a 30-second-timeout client is used
	// when nil.
	HTTP *http.Client
	// PollInterval is the pause PollUpdate takes after a GET of the update
	// that showed no progress (default 25 ms): a long-poll that reached its
	// bound, or one a draining daemon answered at once. The daemon replies
	// to the submit and to each answer with the next question, and to a
	// long-poll only on progress, so PollUpdate does not sleep otherwise.
	PollInterval time.Duration
	// MaxRetries bounds the extra attempts for idempotent GETs (question
	// polls, update polls, stats, session info) that fail with a transient
	// transport error or a 502/503/504 — a balancer whose backend is inside
	// an ejection window, or a replica briefly draining. Non-GET requests
	// are never retried here (submits and answers are not idempotent; the
	// server's own Retry-After contract covers 429s via RunUpdate).
	// Default 2; negative disables.
	MaxRetries int
	// RetryBaseDelay seeds the doubling backoff between GET retries
	// (default 50ms, capped at 1s). A Retry-After hint from the server
	// overrides the computed delay, mirroring llm.HTTPClient.
	RetryBaseDelay time.Duration
}

func (c *Client) maxRetries() int {
	if c.MaxRetries < 0 {
		return 0
	}
	if c.MaxRetries == 0 {
		return 2
	}
	return c.MaxRetries
}

// retryDelay computes the pause before GET retry n (0-based), honoring an
// explicit Retry-After hint when the failure carried one.
func (c *Client) retryDelay(n int, apiErr *APIError) time.Duration {
	const maxDelay = time.Second
	if apiErr != nil && apiErr.RetryAfterSeconds > 0 {
		d := time.Duration(apiErr.RetryAfterSeconds) * time.Second
		if d > maxDelay {
			d = maxDelay
		}
		return d
	}
	base := c.RetryBaseDelay
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	d := base << n
	if d > maxDelay {
		d = maxDelay
	}
	return d
}

// retryableGet reports whether a failed idempotent GET is worth retrying:
// transient transport errors and gateway-ish statuses (502/503/504) are; any
// other API error — 4xx, 500 — is a real answer from the service.
func retryableGet(err error) bool {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		switch apiErr.StatusCode {
		case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return true
		}
		return false
	}
	// Transport-level failure (connection refused/reset mid-ejection). The
	// caller's context expiring is terminal, not transient.
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: 30 * time.Second}
}

func (c *Client) pollEvery() time.Duration {
	if c.PollInterval > 0 {
		return c.PollInterval
	}
	return 25 * time.Millisecond
}

// do issues one JSON request and decodes the reply into out, which may be
// nil for responses without a body.
func (c *Client) do(ctx context.Context, method, path string, in, out interface{}) error {
	data, err := c.send(ctx, method, path, in)
	if err != nil || out == nil {
		return err
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("clarifyd client: decode response: %w", err)
	}
	return nil
}

// send issues one request with in, if non-nil, as its JSON body and returns
// the reply body. GETs are retried per MaxRetries on transient failures so
// short backend ejection or drain windows behind a balancer do not surface
// as errors.
func (c *Client) send(ctx context.Context, method, path string, in interface{}) ([]byte, error) {
	for attempt := 0; ; attempt++ {
		data, err := c.sendOnce(ctx, method, path, in)
		if err == nil || method != http.MethodGet || attempt >= c.maxRetries() || !retryableGet(err) {
			return data, err
		}
		var apiErr *APIError
		errors.As(err, &apiErr)
		if serr := sleepCtx(ctx, c.retryDelay(attempt, apiErr)); serr != nil {
			// Cancellation mid-backoff is the caller's context speaking;
			// surface it immediately (and recognizably — errors.Is sees
			// context.Canceled) instead of the transient error we were
			// about to retry.
			return nil, fmt.Errorf("clarifyd client: retry aborted: %w (last error: %v)", serr, err)
		}
	}
}

func (c *Client) sendOnce(ctx context.Context, method, path string, in interface{}) ([]byte, error) {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return nil, fmt.Errorf("clarifyd client: marshal: %w", err)
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return nil, fmt.Errorf("clarifyd client: build request: %w", err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if tp, ok := obs.TraceParentFromContext(ctx); ok {
		// Propagate the caller's trace context so the daemon records a
		// CLI-driven update under the caller's trace ID; clarify-lb passes
		// it through untouched.
		req.Header.Set(obs.TraceParentHeader, tp.String())
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, fmt.Errorf("clarifyd client: %w", err)
	}
	defer resp.Body.Close()
	data, err := wire.ReadBody(resp.Body, resp.ContentLength, 16<<20)
	if err != nil {
		return nil, fmt.Errorf("clarifyd client: read response: %w", err)
	}
	if resp.StatusCode >= 400 {
		apiErr := &APIError{StatusCode: resp.StatusCode, Message: string(data)}
		var e ErrorResponse
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			apiErr.Message = e.Error
			apiErr.RetryAfterSeconds = e.RetryAfterSeconds
			apiErr.Reason = e.Reason
		}
		return nil, apiErr
	}
	return data, nil
}

// CreateSession uploads a base configuration and returns the session ID.
func (c *Client) CreateSession(ctx context.Context, req CreateSessionRequest) (string, error) {
	var resp CreateSessionResponse
	if err := c.do(ctx, http.MethodPost, "/v1/sessions", req, &resp); err != nil {
		return "", err
	}
	return resp.ID, nil
}

// DeleteSession removes a session.
func (c *Client) DeleteSession(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/sessions/"+url.PathEscape(id), nil, nil)
}

// Session fetches one session's info.
func (c *Client) Session(ctx context.Context, id string) (SessionInfo, error) {
	var out SessionInfo
	err := c.do(ctx, http.MethodGet, "/v1/sessions/"+url.PathEscape(id), nil, &out)
	return out, err
}

// SubmitAsync enqueues one intent and returns immediately with the update to
// poll.
func (c *Client) SubmitAsync(ctx context.Context, id, intentText, target string) (UpdateInfo, error) {
	return c.submit(ctx, id, intentText, target, "")
}

// submit is SubmitAsync with a query: "?after=0" makes the daemon hold the
// reply until the first question or the finished update.
func (c *Client) submit(ctx context.Context, id, intentText, target, query string) (UpdateInfo, error) {
	var out UpdateInfo
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(id)+"/updates"+query,
		SubmitRequest{Intent: intentText, Target: target}, &out)
	return out, err
}

// update fetches one update's view, its pending question inline, without
// waiting.
func (c *Client) update(ctx context.Context, id, updateID string) (UpdateInfo, error) {
	var out UpdateInfo
	err := c.do(ctx, http.MethodGet,
		"/v1/sessions/"+url.PathEscape(id)+"/updates/"+url.PathEscape(updateID), nil, &out)
	return out, err
}

// question fetches the pending disambiguation question, or nil when the
// pipeline is not waiting on one.
func (c *Client) question(ctx context.Context, id string) (*Question, error) {
	var out QuestionResponse
	if err := c.do(ctx, http.MethodGet, "/v1/sessions/"+url.PathEscape(id)+"/question", nil, &out); err != nil {
		return nil, err
	}
	if !out.Pending {
		return nil, nil
	}
	return out.Question, nil
}

// answer delivers the operator's choice (1 or 2) for question seq. The
// daemon holds the reply until the update's next question or its end, for
// at most 5 s, and replies with the update's next view.
func (c *Client) answer(ctx context.Context, id string, seq, option int) (UpdateInfo, error) {
	var out UpdateInfo
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(id)+"/answer",
		AnswerRequest{Seq: seq, Option: option}, &out)
	return out, err
}

// Config fetches the session's current configuration text.
func (c *Client) Config(ctx context.Context, id string) (string, error) {
	data, err := c.send(ctx, http.MethodGet, "/v1/sessions/"+url.PathEscape(id)+"/config", nil)
	return string(data), err
}

// Stats fetches the session's pipeline counters.
func (c *Client) Stats(ctx context.Context, id string) (clarify.Stats, error) {
	var out StatsResponse
	err := c.do(ctx, http.MethodGet, "/v1/sessions/"+url.PathEscape(id)+"/stats", nil, &out)
	return out.Stats, err
}

// Metrics fetches the daemon-wide metrics snapshot.
func (c *Client) Metrics(ctx context.Context) (MetricsSnapshot, error) {
	var out MetricsSnapshot
	err := c.do(ctx, http.MethodGet, "/metrics", nil, &out)
	return out, err
}

// AnswerFunc chooses OPTION 1 or 2 for one differential question; it is the
// client-side analogue of the disambig oracle interfaces.
type AnswerFunc func(q Question) (option int, err error)

// RunUpdate drives one intent end to end: submit it, answer each
// disambiguation question via fn, and return the terminal update. That is
// one request per dialogue turn: the submit replies with the first
// question and each answer with the next, or with the finished update (see
// PollUpdate). 429 backpressure rejections are retried after the server's
// Retry-After hint until ctx expires. On error the returned UpdateInfo
// carries the last known state — in particular the update ID once the
// submit landed, so a caller surviving a replica handoff can resume the
// same update with PollUpdate instead of resubmitting.
func (c *Client) RunUpdate(ctx context.Context, id, intentText, target string, fn AnswerFunc) (UpdateInfo, error) {
	var u UpdateInfo
	for {
		var err error
		u, err = c.submit(ctx, id, intentText, target, "?after=0")
		if err == nil {
			break
		}
		apiErr, ok := err.(*APIError)
		if !ok || apiErr.StatusCode != http.StatusTooManyRequests {
			return UpdateInfo{}, err
		}
		wait := time.Duration(apiErr.RetryAfterSeconds) * time.Second
		if wait <= 0 {
			wait = time.Second
		}
		if serr := sleepCtx(ctx, wait); serr != nil {
			return UpdateInfo{}, fmt.Errorf("clarifyd client: retry aborted: %w", serr)
		}
	}
	return c.drive(ctx, id, u, true, fn)
}

// PollUpdate drives an already-submitted update to completion: answer its
// disambiguation questions via fn and return the terminal state. It
// starts with a long-poll, GET …/updates/{uid}?after=N with N the last
// answered sequence number, which the daemon answers once the update is
// terminal or carries a newer question. Each answer's reply is the next
// such view, so a turn is one request. It sends the GET again only after a
// reply that showed no progress, and pauses PollInterval after a GET that
// showed none: a long-poll that reached its bound, or one a draining
// daemon answered at once. It is the resume half of RunUpdate — safe to
// call again after a transport error or a replica restart, because
// answering is idempotent per sequence number (a stale answer is a
// tolerated conflict). On error the returned UpdateInfo carries the last
// state seen.
func (c *Client) PollUpdate(ctx context.Context, id, updateID string, fn AnswerFunc) (UpdateInfo, error) {
	return c.drive(ctx, id, UpdateInfo{ID: updateID, Status: StatusQueued}, false, fn)
}

// drive runs the dialogue loop of PollUpdate from cur, a view of the
// update; fresh reports that cur is a reply from the daemon rather than a
// placeholder, so the loop acts on it before sending a GET.
func (c *Client) drive(ctx context.Context, id string, cur UpdateInfo, fresh bool, fn AnswerFunc) (UpdateInfo, error) {
	last := cur
	path := "/v1/sessions/" + url.PathEscape(id) + "/updates/" + url.PathEscape(cur.ID) + "?after="
	answered := 0
	for {
		polled := !fresh
		if polled {
			cur = UpdateInfo{}
			if err := c.do(ctx, http.MethodGet, path+strconv.Itoa(answered), nil, &cur); err != nil {
				return last, err
			}
		}
		fresh = false
		last = cur
		if cur.Terminal() {
			return cur, nil
		}
		if q := cur.Question; q != nil && q.Seq > answered {
			option, err := fn(*q)
			if err != nil {
				return last, err
			}
			next, err := c.answer(ctx, id, q.Seq, option)
			if err != nil {
				// A conflict means the question moved on (answered
				// elsewhere or timed out); keep polling.
				if apiErr, ok := err.(*APIError); !ok || apiErr.StatusCode != http.StatusConflict {
					return last, err
				}
			}
			answered = q.Seq
			if err == nil {
				cur, fresh = next, true
			}
			continue
		}
		if polled {
			if err := sleepCtx(ctx, c.pollEvery()); err != nil {
				return last, err
			}
		}
	}
}

// RestoreSession uploads an externalized session to the daemon (or to a
// balancer, which places it on an accepting replica and re-pins affinity).
// Draining daemons use it to hand parked sessions to a peer on SIGTERM.
func (c *Client) RestoreSession(ctx context.Context, snap *snapshot.Session) (RestoreSessionResponse, error) {
	var out RestoreSessionResponse
	err := c.do(ctx, http.MethodPut, "/v1/sessions/"+url.PathEscape(snap.ID)+"/restore", snap, &out)
	return out, err
}

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
