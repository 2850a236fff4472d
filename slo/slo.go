// Package slo evaluates service-level objectives over a rolling window of
// update outcomes and raises multi-window burn-rate alerts, the alerting
// discipline from the Google SRE workbook: page when the error budget is
// burning fast over both a long window (sustained, not a blip) and a short
// window (still happening right now).
//
// Two objective families cover clarifyd's serving promise:
//
//   - availability: a fraction of updates must complete without error
//     (goal, e.g. 0.999);
//   - latency: a fraction of updates must finish under a threshold
//     (goal, e.g. 0.99 of updates verified < 500ms) — a latency miss burns
//     that objective's budget exactly like an error burns availability's.
//
// A Monitor keeps per-second good/bad counters in a fixed ring sized to the
// longest alert window, so memory is constant and Observe is O(1). Burn
// rate over a window is (bad fraction) / (1 − goal): burn 1.0 spends the
// budget exactly at the sustainable pace, 14.4 spends a 30-day budget in
// ~2 days. All methods are safe for concurrent use and no-op on a nil Set.
package slo

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Objective is one service-level objective.
type Objective struct {
	// Name labels the objective in snapshots and metric series
	// (e.g. "availability", "latency").
	Name string `json:"name"`
	// Goal is the target good fraction in (0,1), e.g. 0.999.
	Goal float64 `json:"goal"`
	// LatencyThresholdMs, when positive, makes this a latency objective: an
	// update is good when it succeeds AND finishes under the threshold.
	// Zero makes it an availability objective (success alone is good).
	LatencyThresholdMs float64 `json:"latencyThresholdMs,omitempty"`
}

// Window is one burn-rate alert rule: the alert fires while the burn rate
// over BOTH the long and the short window is at or above Burn.
type Window struct {
	// Long is the sustained-burn window (e.g. 1h).
	Long time.Duration `json:"-"`
	// Short is the still-happening window (e.g. 5m).
	Short time.Duration `json:"-"`
	// Burn is the burn-rate threshold (e.g. 14.4).
	Burn float64 `json:"burn"`
	// Severity labels the alert (e.g. "page", "ticket").
	Severity string `json:"severity"`
}

// windowJSON exposes the durations in seconds on the wire.
type windowJSON struct {
	LongS    float64 `json:"longSeconds"`
	ShortS   float64 `json:"shortSeconds"`
	Burn     float64 `json:"burn"`
	Severity string  `json:"severity"`
}

// MarshalJSON renders the window with durations in seconds.
func (w Window) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf(`{"longSeconds":%s,"shortSeconds":%s,"burn":%s,"severity":%q}`,
		formatFloat(w.Long.Seconds()), formatFloat(w.Short.Seconds()),
		formatFloat(w.Burn), w.Severity)), nil
}

// UnmarshalJSON restores a window from its wire form.
func (w *Window) UnmarshalJSON(data []byte) error {
	var in windowJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	w.Long = time.Duration(in.LongS * float64(time.Second))
	w.Short = time.Duration(in.ShortS * float64(time.Second))
	w.Burn = in.Burn
	w.Severity = in.Severity
	return nil
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// Config assembles a Set.
type Config struct {
	// Objectives to track; empty selects DefaultObjectives.
	Objectives []Objective
	// Windows are the burn-rate alert rules; empty selects DefaultWindows.
	Windows []Window
	// Resolution is the ring bucket width (default 1s). Tests shrink it to
	// exercise hours-long windows in milliseconds.
	Resolution time.Duration

	// now overrides the clock (tests).
	now func() time.Time
}

// DefaultObjectives is the serving promise clarifyd ships with: 99.9% of
// updates complete without error, and 99% of updates finish under 500ms.
func DefaultObjectives() []Objective {
	return []Objective{
		{Name: "availability", Goal: 0.999},
		{Name: "latency", Goal: 0.99, LatencyThresholdMs: 500},
	}
}

// DefaultWindows is the classic two-rule multi-window ladder: a fast page
// (1h/5m at burn 14.4) and a slow ticket (6h/30m at burn 6).
func DefaultWindows() []Window {
	return []Window{
		{Long: time.Hour, Short: 5 * time.Minute, Burn: 14.4, Severity: "page"},
		{Long: 6 * time.Hour, Short: 30 * time.Minute, Burn: 6, Severity: "ticket"},
	}
}

// ParseWindows parses a flag-friendly window spec:
// "long:short:burn:severity[,...]", e.g. "1h:5m:14.4:page,6h:30m:6:ticket".
func ParseWindows(spec string) ([]Window, error) {
	var out []Window
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) != 4 {
			return nil, fmt.Errorf("slo: window %q: want long:short:burn:severity", part)
		}
		long, err := time.ParseDuration(fields[0])
		if err != nil {
			return nil, fmt.Errorf("slo: window %q: long: %w", part, err)
		}
		short, err := time.ParseDuration(fields[1])
		if err != nil {
			return nil, fmt.Errorf("slo: window %q: short: %w", part, err)
		}
		burn, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, fmt.Errorf("slo: window %q: burn: %w", part, err)
		}
		if long <= 0 || short <= 0 || short > long || burn <= 0 || fields[3] == "" {
			return nil, fmt.Errorf("slo: window %q: want 0 < short <= long, burn > 0, non-empty severity", part)
		}
		out = append(out, Window{Long: long, Short: short, Burn: burn, Severity: fields[3]})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("slo: empty window spec")
	}
	return out, nil
}

// bucket is one resolution-interval of outcomes.
type bucket struct {
	epoch int64 // bucket index since the unix epoch; stale slots are skipped
	good  int64
	bad   int64
}

// Monitor tracks one objective in a fixed ring of per-resolution buckets.
type Monitor struct {
	obj     Objective
	windows []Window
	res     time.Duration
	now     func() time.Time

	mu   sync.Mutex
	ring []bucket
	// totals since process start (budget accounting is windowed; these feed
	// counters in the Prometheus view).
	good int64
	bad  int64
}

func newMonitor(obj Objective, windows []Window, res time.Duration, now func() time.Time) *Monitor {
	longest := time.Duration(0)
	for _, w := range windows {
		if w.Long > longest {
			longest = w.Long
		}
	}
	n := int(longest/res) + 2
	return &Monitor{obj: obj, windows: windows, res: res, now: now, ring: make([]bucket, n)}
}

// observe records one outcome.
func (m *Monitor) observe(dur time.Duration, failed bool) {
	good := !failed
	if good && m.obj.LatencyThresholdMs > 0 &&
		float64(dur)/float64(time.Millisecond) > m.obj.LatencyThresholdMs {
		good = false
	}
	epoch := m.now().UnixNano() / int64(m.res)
	m.mu.Lock()
	defer m.mu.Unlock()
	b := &m.ring[int(epoch%int64(len(m.ring)))]
	if b.epoch != epoch {
		*b = bucket{epoch: epoch}
	}
	if good {
		b.good++
		m.good++
	} else {
		b.bad++
		m.bad++
	}
}

// rates sums the ring over the trailing window; callers hold m.mu.
func (m *Monitor) ratesLocked(window time.Duration, nowEpoch int64) (good, bad int64) {
	n := int64(window / m.res)
	if n < 1 {
		n = 1
	}
	for _, b := range m.ring {
		if b.epoch > nowEpoch-n && b.epoch <= nowEpoch {
			good += b.good
			bad += b.bad
		}
	}
	return good, bad
}

// burn computes the burn rate for a trailing window; callers hold m.mu.
// With no traffic in the window the burn is zero (nothing is burning).
func (m *Monitor) burnLocked(window time.Duration, nowEpoch int64) float64 {
	good, bad := m.ratesLocked(window, nowEpoch)
	total := good + bad
	if total == 0 {
		return 0
	}
	budget := 1 - m.obj.Goal
	if budget <= 0 {
		budget = 1e-9
	}
	return (float64(bad) / float64(total)) / budget
}

// WindowState is one alert rule's evaluation.
type WindowState struct {
	Window
	// LongBurn / ShortBurn are the measured burn rates.
	LongBurn  float64 `json:"longBurn"`
	ShortBurn float64 `json:"shortBurn"`
	// Firing is true while both burns are at or above the threshold.
	Firing bool `json:"firing"`
}

// windowStateJSON is the wire form; the embedded Window's custom MarshalJSON
// would otherwise be promoted and silently drop the burn fields.
type windowStateJSON struct {
	windowJSON
	LongBurn  float64 `json:"longBurn"`
	ShortBurn float64 `json:"shortBurn"`
	Firing    bool    `json:"firing"`
}

// MarshalJSON renders the rule and its evaluation together.
func (s WindowState) MarshalJSON() ([]byte, error) {
	return json.Marshal(windowStateJSON{
		windowJSON: windowJSON{
			LongS:    s.Long.Seconds(),
			ShortS:   s.Short.Seconds(),
			Burn:     s.Burn,
			Severity: s.Severity,
		},
		LongBurn:  s.LongBurn,
		ShortBurn: s.ShortBurn,
		Firing:    s.Firing,
	})
}

// UnmarshalJSON restores a window state from its wire form.
func (s *WindowState) UnmarshalJSON(data []byte) error {
	var in windowStateJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	s.Window = Window{
		Long:     time.Duration(in.LongS * float64(time.Second)),
		Short:    time.Duration(in.ShortS * float64(time.Second)),
		Burn:     in.Burn,
		Severity: in.Severity,
	}
	s.LongBurn = in.LongBurn
	s.ShortBurn = in.ShortBurn
	s.Firing = in.Firing
	return nil
}

// MonitorSnapshot is one objective's state.
type MonitorSnapshot struct {
	Objective Objective `json:"objective"`
	// Good / Bad count outcomes since process start.
	Good int64 `json:"good"`
	Bad  int64 `json:"bad"`
	// ErrorBudgetRemaining is the fraction of the longest window's budget
	// still unspent, clamped to [0,1]: 1 means untouched, 0 means exhausted.
	ErrorBudgetRemaining float64 `json:"errorBudgetRemaining"`
	// Windows holds each alert rule's evaluation.
	Windows []WindowState `json:"windows"`
}

// Firing reports whether any window alert is firing.
func (s MonitorSnapshot) Firing() bool {
	for _, w := range s.Windows {
		if w.Firing {
			return true
		}
	}
	return false
}

// snapshot evaluates every window now.
func (m *Monitor) snapshot() MonitorSnapshot {
	nowEpoch := m.now().UnixNano() / int64(m.res)
	m.mu.Lock()
	defer m.mu.Unlock()
	snap := MonitorSnapshot{Objective: m.obj, Good: m.good, Bad: m.bad}
	longest := time.Duration(0)
	for _, w := range m.windows {
		lb := m.burnLocked(w.Long, nowEpoch)
		sb := m.burnLocked(w.Short, nowEpoch)
		snap.Windows = append(snap.Windows, WindowState{
			Window:   w,
			LongBurn: lb, ShortBurn: sb,
			Firing: lb >= w.Burn && sb >= w.Burn,
		})
		if w.Long > longest {
			longest = w.Long
		}
	}
	// Budget remaining over the longest window: 1 − burn (burn 1.0 over the
	// whole window = budget exactly spent).
	remaining := 1 - m.burnLocked(longest, nowEpoch)
	if remaining < 0 {
		remaining = 0
	} else if remaining > 1 {
		remaining = 1
	}
	snap.ErrorBudgetRemaining = remaining
	return snap
}

// Set evaluates a group of objectives against one outcome stream. A nil Set
// no-ops, so callers need no "is SLO tracking enabled?" branches.
type Set struct {
	monitors []*Monitor
}

// New builds a Set from cfg, filling defaults for empty fields.
func New(cfg Config) (*Set, error) {
	objs := cfg.Objectives
	if len(objs) == 0 {
		objs = DefaultObjectives()
	}
	windows := cfg.Windows
	if len(windows) == 0 {
		windows = DefaultWindows()
	}
	res := cfg.Resolution
	if res <= 0 {
		res = time.Second
	}
	now := cfg.now
	if now == nil {
		now = time.Now
	}
	seen := map[string]bool{}
	for _, o := range objs {
		if o.Name == "" || o.Goal <= 0 || o.Goal >= 1 {
			return nil, fmt.Errorf("slo: objective %+v: want a name and goal in (0,1)", o)
		}
		if seen[o.Name] {
			return nil, fmt.Errorf("slo: duplicate objective %q", o.Name)
		}
		seen[o.Name] = true
	}
	for _, w := range windows {
		if w.Long <= 0 || w.Short <= 0 || w.Short > w.Long || w.Burn <= 0 {
			return nil, fmt.Errorf("slo: window %+v: want 0 < short <= long and burn > 0", w)
		}
	}
	s := &Set{}
	for _, o := range objs {
		s.monitors = append(s.monitors, newMonitor(o, windows, res, now))
	}
	return s, nil
}

// Observe records one update outcome against every objective. Safe on a nil
// Set.
func (s *Set) Observe(dur time.Duration, failed bool) {
	if s == nil {
		return
	}
	for _, m := range s.monitors {
		m.observe(dur, failed)
	}
}

// Snapshot is the full SLO state, served at GET /debug/slo and embedded in
// /metrics.
type Snapshot struct {
	Objectives []MonitorSnapshot `json:"objectives"`
}

// Firing reports whether any objective has a firing alert.
func (s Snapshot) Firing() bool {
	for _, o := range s.Objectives {
		if o.Firing() {
			return true
		}
	}
	return false
}

// Snapshot evaluates every objective now. Safe on a nil Set (empty
// snapshot).
func (s *Set) Snapshot() Snapshot {
	if s == nil {
		return Snapshot{}
	}
	var snap Snapshot
	for _, m := range s.monitors {
		snap.Objectives = append(snap.Objectives, m.snapshot())
	}
	sort.Slice(snap.Objectives, func(i, j int) bool {
		return snap.Objectives[i].Objective.Name < snap.Objectives[j].Objective.Name
	})
	return snap
}
