package loadgen

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/clarifynet/clarify/server"
)

// errSessionLost marks a session that stayed gone through the lost-session
// grace window: the handoff did not preserve it.
var errSessionLost = errors.New("loadgen: session lost across restart")

const (
	// resumeBackoffStart / resumeBackoffCap pace retries while a replica is
	// mid-handoff. The start is deliberately short: the common blip — a 502
	// from a backend the balancer has not ejected yet — clears within one
	// probe round, and a slow first retry would push every disrupted update
	// past the gate's slowUpdateMs. The doubling cap still protects a
	// genuinely overloaded fleet.
	resumeBackoffStart = 50 * time.Millisecond
	resumeBackoffCap   = 1 * time.Second
	// rollingPhaseTimeout bounds each half of one replica cycle: old process
	// gone, then new process healthy.
	rollingPhaseTimeout = 30 * time.Second
)

// lostGrace is how long a 404/410 must persist before the session is
// declared lost — a restore PUT is normally in flight for well under a
// second, but the balancer may also need a probe round to re-route. A
// variable so tests can shrink the window.
var lostGrace = 10 * time.Second

// resumeUpdate runs one update insisting on the SAME session surviving any
// replica handoff mid-flight: the submit is retried through transient
// errors, a conflict resolves to the session's in-flight update, and the
// poll rides out 5xx/transport blips — and even short 404 windows while a
// restore is landing — under the original session and update IDs. Only a
// session that stays gone past the grace window returns errSessionLost.
func resumeUpdate(ctx context.Context, client *server.Client, sid, intentText, target string, answer server.AnswerFunc) (server.UpdateInfo, error) {
	backoff := resumeBackoffStart
	var lostSince time.Time
	lost := func(err error) error {
		if lostSince.IsZero() {
			lostSince = time.Now()
		}
		if time.Since(lostSince) > lostGrace {
			return fmt.Errorf("%w: %v", errSessionLost, err)
		}
		return nil // still within grace: keep retrying
	}

	uid := ""
	for uid == "" {
		u, err := client.SubmitAsync(ctx, sid, intentText, target)
		switch {
		case err == nil:
			uid = u.ID
		case sessionGone(err):
			if lerr := lost(err); lerr != nil {
				return server.UpdateInfo{}, lerr
			}
		case isConflict(err):
			// The submit landed just before the disruption (or the session is
			// mid-restore with its update re-executing): resume the session's
			// latest update instead of double-submitting the intent.
			info, ierr := client.Session(ctx, sid)
			if ierr == nil && info.Updates > 0 {
				uid = fmt.Sprintf("u%d", info.Updates)
				continue
			}
			if ierr != nil && !sessionGone(ierr) && !resumable(ierr) {
				return server.UpdateInfo{}, ierr
			}
		case !resumable(err):
			return server.UpdateInfo{}, err
		}
		if uid == "" {
			if serr := sleepBackoff(ctx, &backoff); serr != nil {
				return server.UpdateInfo{}, serr
			}
		}
	}

	lostSince = time.Time{}
	backoff = resumeBackoffStart
	for {
		u, err := client.PollUpdate(ctx, sid, uid, answer)
		switch {
		case err == nil:
			return u, nil
		case sessionGone(err):
			if lerr := lost(err); lerr != nil {
				return u, lerr
			}
		case !resumable(err):
			return u, err
		default:
			lostSince = time.Time{}
		}
		if serr := sleepBackoff(ctx, &backoff); serr != nil {
			return u, err
		}
	}
}

// sessionGone matches the statuses a vanished session produces: 404 from a
// replica that never saw it, 410 from one that buried it.
func sessionGone(err error) bool {
	var apiErr *server.APIError
	if errors.As(err, &apiErr) {
		return apiErr.StatusCode == http.StatusNotFound || apiErr.StatusCode == http.StatusGone
	}
	return false
}

func isConflict(err error) bool {
	var apiErr *server.APIError
	return errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusConflict
}

// resumable classifies an error as "the fleet is mid-handoff, try again":
// gateway-ish statuses, backpressure, or a transport failure. Context expiry
// is the update's own budget running out — never resumable.
func resumable(err error) bool {
	var apiErr *server.APIError
	if errors.As(err, &apiErr) {
		switch apiErr.StatusCode {
		case http.StatusTooManyRequests, http.StatusBadGateway,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return true
		}
		return false
	}
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

func sleepBackoff(ctx context.Context, backoff *time.Duration) error {
	select {
	case <-time.After(*backoff):
	case <-ctx.Done():
		return ctx.Err()
	}
	if *backoff < resumeBackoffCap {
		*backoff *= 2
	}
	return nil
}

// rollingRestart cycles each target once, evenly staggered across the run:
// target i is SIGTERMed at total*(i+1)/(n+1), then the driver waits for the
// old process to exit (graceful drain and handoff happen here) and for the
// supervisor's replacement to report healthy under a new pid. onRestart
// fires per completed cycle; onErr per failed one.
func rollingRestart(ctx context.Context, targets []RollingTarget, start time.Time, total time.Duration, onRestart func(), onErr func(string)) {
	n := len(targets)
	hc := &http.Client{Timeout: 2 * time.Second}
	for i, tgt := range targets {
		at := start.Add(total * time.Duration(i+1) / time.Duration(n+1))
		select {
		case <-time.After(time.Until(at)):
		case <-ctx.Done():
			return
		}
		if err := restartReplica(ctx, hc, tgt); err != nil {
			onErr("rolling restart " + tgt.BaseURL + ": " + trimErr(err))
			continue
		}
		onRestart()
	}
}

// restartReplica performs one SIGTERM cycle against a supervised replica.
func restartReplica(ctx context.Context, hc *http.Client, tgt RollingTarget) error {
	oldPID, err := readPID(tgt.PIDFile)
	if err != nil {
		return err
	}
	proc, err := os.FindProcess(oldPID)
	if err != nil {
		return err
	}
	if err := proc.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("SIGTERM pid %d: %w", oldPID, err)
	}

	// Phase 1: the old process drains, hands its sessions off, and exits.
	deadline := time.Now().Add(rollingPhaseTimeout)
	for proc.Signal(syscall.Signal(0)) == nil {
		if time.Now().After(deadline) {
			return fmt.Errorf("pid %d still running %s after SIGTERM", oldPID, rollingPhaseTimeout)
		}
		select {
		case <-time.After(50 * time.Millisecond):
		case <-ctx.Done():
			return ctx.Err()
		}
	}

	// Phase 2: the supervisor brings a replacement up — new pid in the
	// pidfile and a passing direct health check.
	deadline = time.Now().Add(rollingPhaseTimeout)
	for {
		if pid, err := readPID(tgt.PIDFile); err == nil && pid != oldPID {
			if resp, err := hc.Get(tgt.BaseURL + "/healthz"); err == nil {
				ok := resp.StatusCode == http.StatusOK
				resp.Body.Close()
				if ok {
					return nil
				}
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica %s not healthy %s after restart", tgt.BaseURL, rollingPhaseTimeout)
		}
		select {
		case <-time.After(50 * time.Millisecond):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

func readPID(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	pid, err := strconv.Atoi(strings.TrimSpace(string(data)))
	if err != nil || pid <= 0 {
		return 0, fmt.Errorf("pidfile %s holds %q, not a pid", path, strings.TrimSpace(string(data)))
	}
	return pid, nil
}
