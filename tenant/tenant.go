// Package tenant provides the admission-control primitives that make the
// clarify daemon safe to share: per-tenant token-bucket rate limits,
// concurrent-update quotas, start-time weighted fair queueing (SFQ) with a
// strict-priority interactive lane, and a CoDel-style queue-delay shed
// controller.
//
// The pieces compose but do not depend on each other:
//
//   - Bucket — token-bucket rate limiter with an injectable clock.
//   - Registry / Tenant — named tenants with a Profile (weight, rate, burst,
//     max concurrent updates); Admit consults the bucket and the in-flight
//     quota and returns a Verdict with a Retry-After hint.
//   - Queue — a bounded two-lane dispatch queue. The interactive lane is
//     strict-priority FIFO; the bulk lane is weighted fair (SFQ: each job is
//     tagged max(virtualTime, flowFinish), flows advance by 1/weight, the
//     minimum tag dispatches). A shed controller watching bulk dequeue
//     sojourn times flips the queue into overload mode when delay stays
//     above target for a full interval; while overloaded, arriving bulk jobs
//     from flows at or beyond their fair backlog share are rejected
//     (FQ-CoDel's discipline: the delay signal is global, the drop policy
//     targets the dominant flows).
//
// The server composes them: Registry gates the submit handler (429 +
// Retry-After on quota), Queue replaces the worker pool's FIFO channel.
package tenant

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// HeaderTenant is the HTTP request header naming the tenant on whose behalf
// a session is created or an update submitted. Absent or empty means
// DefaultTenant.
const HeaderTenant = "X-Clarify-Tenant"

// HeaderShedReason is set on 429 responses to say which admission gate
// rejected the request (see the Reason constants).
const HeaderShedReason = "X-Clarify-Shed"

// DefaultTenant is the tenant name used when a request carries no
// X-Clarify-Tenant header.
const DefaultTenant = "default"

// Lane selects which dispatch lane a job enters.
type Lane int

const (
	// Bulk is the weighted-fair lane for ordinary synthesis submits.
	Bulk Lane = iota
	// Interactive is the strict-priority lane: jobs here dispatch before
	// any bulk job. Used for sessions engaged in the disambiguation Q&A so
	// an operator mid-dialogue is never queued behind a bulk flood.
	Interactive
)

func (l Lane) String() string {
	if l == Interactive {
		return "interactive"
	}
	return "bulk"
}

// Reason says which admission gate rejected (or dropped) a job.
type Reason string

const (
	// ReasonRate: the tenant's token bucket is empty.
	ReasonRate Reason = "rate"
	// ReasonConcurrency: the tenant is at its max concurrent updates.
	ReasonConcurrency Reason = "concurrency"
	// ReasonQueueFull: the dispatch queue is at capacity.
	ReasonQueueFull Reason = "queue_full"
	// ReasonOverload: the queue-delay shed controller is in overload mode
	// and the tenant's backlog is at or beyond its fair share.
	ReasonOverload Reason = "overload"
	// ReasonClosed: the queue is shut down (daemon draining).
	ReasonClosed Reason = "closed"
	// ReasonDrainDeadline: the job was purged from the queue because the
	// shutdown drain deadline expired before a worker picked it up.
	ReasonDrainDeadline Reason = "drain_deadline"
)

// Verdict is the outcome of an admission check.
type Verdict struct {
	OK         bool
	Reason     Reason
	RetryAfter time.Duration // hint for the Retry-After header when !OK
}

// Profile is a tenant's admission configuration.
type Profile struct {
	// Name identifies the tenant; empty in the default profile.
	Name string `json:"name,omitempty"`
	// Weight is the tenant's share of bulk dispatch (SFQ weight). <= 0
	// means 1.
	Weight float64 `json:"weight"`
	// Rate is the sustained submit rate in updates/second. <= 0 means
	// unlimited.
	Rate float64 `json:"rate,omitempty"`
	// Burst is the token-bucket depth. <= 0 with a positive Rate defaults
	// to max(1, ceil(Rate)).
	Burst int `json:"burst,omitempty"`
	// MaxConcurrent caps the tenant's in-flight updates. <= 0 means
	// unlimited.
	MaxConcurrent int `json:"max_concurrent,omitempty"`
}

// withDefaults normalizes zero/negative fields.
func (p Profile) withDefaults() Profile {
	if p.Weight <= 0 {
		p.Weight = 1
	}
	if p.Rate > 0 && p.Burst <= 0 {
		p.Burst = int(p.Rate)
		if float64(p.Burst) < p.Rate {
			p.Burst++
		}
		if p.Burst < 1 {
			p.Burst = 1
		}
	}
	if p.Rate <= 0 {
		p.Rate, p.Burst = 0, 0
	}
	if p.MaxConcurrent < 0 {
		p.MaxConcurrent = 0
	}
	return p
}

// ParseProfile parses a default-profile spec "weight:rate:burst:concurrent".
// Trailing fields may be omitted; empty fields keep the zero default
// (weight 1, unlimited rate, unlimited concurrency).
func ParseProfile(spec string) (Profile, error) {
	var p Profile
	if strings.TrimSpace(spec) == "" {
		return p.withDefaults(), nil
	}
	fields := strings.Split(spec, ":")
	if len(fields) > 4 {
		return p, fmt.Errorf("profile %q: want at most weight:rate:burst:concurrent", spec)
	}
	parse := func(i int, dst *float64, what string) error {
		if i >= len(fields) || strings.TrimSpace(fields[i]) == "" {
			return nil
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(fields[i]), 64)
		if err != nil || v < 0 {
			return fmt.Errorf("profile %q: bad %s %q", spec, what, fields[i])
		}
		*dst = v
		return nil
	}
	var burst, conc float64
	if err := parse(0, &p.Weight, "weight"); err != nil {
		return p, err
	}
	if err := parse(1, &p.Rate, "rate"); err != nil {
		return p, err
	}
	if err := parse(2, &burst, "burst"); err != nil {
		return p, err
	}
	if err := parse(3, &conc, "concurrent"); err != nil {
		return p, err
	}
	p.Burst, p.MaxConcurrent = int(burst), int(conc)
	return p.withDefaults(), nil
}

// ParseProfiles parses a comma-separated list of named tenant specs, each
// "name:weight:rate:burst:concurrent" with trailing fields optional, e.g.
// "teamA:4,mallory:1:2:4:2". Unset fields inherit from def.
func ParseProfiles(spec string, def Profile) ([]Profile, error) {
	def = def.withDefaults()
	var out []Profile
	seen := map[string]bool{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rest, _ := strings.Cut(part, ":")
		name = strings.TrimSpace(name)
		if !ValidName(name) {
			return nil, fmt.Errorf("tenant spec %q: bad name %q", part, name)
		}
		if seen[name] {
			return nil, fmt.Errorf("tenant %q configured twice", name)
		}
		seen[name] = true
		p := def
		if strings.TrimSpace(rest) != "" {
			fields := strings.Split(rest, ":")
			if len(fields) > 4 {
				return nil, fmt.Errorf("tenant %q: want at most name:weight:rate:burst:concurrent", name)
			}
			set := func(i int, dst *float64, what string) error {
				if i >= len(fields) || strings.TrimSpace(fields[i]) == "" {
					return nil
				}
				v, err := strconv.ParseFloat(strings.TrimSpace(fields[i]), 64)
				if err != nil || v < 0 {
					return fmt.Errorf("tenant %q: bad %s %q", name, what, fields[i])
				}
				*dst = v
				return nil
			}
			var burst = float64(p.Burst)
			var conc = float64(p.MaxConcurrent)
			if err := set(0, &p.Weight, "weight"); err != nil {
				return nil, err
			}
			if err := set(1, &p.Rate, "rate"); err != nil {
				return nil, err
			}
			if err := set(2, &burst, "burst"); err != nil {
				return nil, err
			}
			if err := set(3, &conc, "concurrent"); err != nil {
				return nil, err
			}
			// A rate overridden without an explicit burst re-derives the
			// burst from the new rate rather than inheriting the default's.
			if len(fields) >= 2 && strings.TrimSpace(fields[1]) != "" &&
				(len(fields) < 3 || strings.TrimSpace(fields[2]) == "") {
				burst = 0
			}
			p.Burst, p.MaxConcurrent = int(burst), int(conc)
			p = p.withDefaults()
		}
		p.Name = name
		out = append(out, p)
	}
	return out, nil
}

// ValidName reports whether name is acceptable as a tenant identifier:
// 1–64 characters from [A-Za-z0-9._-].
func ValidName(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

// OverflowTenant absorbs tenants beyond the registry's cardinality cap so
// metrics stay bounded under a tenant-name flood.
const OverflowTenant = "~overflow"

// DefaultMaxTenants bounds the number of distinct live tenants a registry
// tracks before folding new names into OverflowTenant.
const DefaultMaxTenants = 256

// Stats is a point-in-time snapshot of one tenant's admission counters.
type Stats struct {
	Profile   Profile          `json:"profile"`
	InFlight  int              `json:"in_flight"`
	Submits   int64            `json:"submits"`
	Completed int64            `json:"completed"`
	Failed    int64            `json:"failed"`
	Sheds     map[Reason]int64 `json:"sheds,omitempty"`
}

// Tenant is one admitted principal: its profile, token bucket, in-flight
// count, and counters. Safe for concurrent use.
type Tenant struct {
	name   string
	prof   Profile
	bucket *Bucket

	mu        sync.Mutex
	inflight  int
	submits   int64
	completed int64
	failed    int64
	sheds     map[Reason]int64
}

// Name returns the tenant's identifier.
func (t *Tenant) Name() string { return t.name }

// Weight returns the tenant's fair-queueing weight.
func (t *Tenant) Weight() float64 { return t.prof.Weight }

// Profile returns the tenant's admission configuration.
func (t *Tenant) Profile() Profile { return t.prof }

// Admit runs the rate and concurrency gates. On success the tenant's
// in-flight count is incremented; the caller must pair it with Release.
func (t *Tenant) Admit() Verdict {
	if ok, retry := t.bucket.Take(); !ok {
		t.RecordShed(ReasonRate)
		return Verdict{Reason: ReasonRate, RetryAfter: retry}
	}
	t.mu.Lock()
	if t.prof.MaxConcurrent > 0 && t.inflight >= t.prof.MaxConcurrent {
		t.mu.Unlock()
		t.RecordShed(ReasonConcurrency)
		return Verdict{Reason: ReasonConcurrency, RetryAfter: time.Second}
	}
	t.inflight++
	t.submits++
	t.mu.Unlock()
	return Verdict{OK: true}
}

// AdmitRestored takes an in-flight slot without consulting the rate or
// concurrency gates: a rehydrated pending update was admitted before its
// session was handed off, so it re-enters accounting unconditionally. Pair
// with Release like Admit.
func (t *Tenant) AdmitRestored() {
	t.mu.Lock()
	t.inflight++
	t.mu.Unlock()
}

// Release returns one in-flight slot. Safe to call once per successful
// Admit.
func (t *Tenant) Release() {
	t.mu.Lock()
	if t.inflight > 0 {
		t.inflight--
	}
	t.mu.Unlock()
}

// RecordShed counts a rejection against the tenant.
func (t *Tenant) RecordShed(r Reason) {
	t.mu.Lock()
	if t.sheds == nil {
		t.sheds = map[Reason]int64{}
	}
	t.sheds[r]++
	t.mu.Unlock()
}

// RecordOutcome counts a finished update.
func (t *Tenant) RecordOutcome(failed bool) {
	t.mu.Lock()
	if failed {
		t.failed++
	} else {
		t.completed++
	}
	t.mu.Unlock()
}

// InFlight returns the tenant's current in-flight update count.
func (t *Tenant) InFlight() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.inflight
}

// Stats snapshots the tenant's counters.
func (t *Tenant) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := Stats{
		Profile:   t.prof,
		InFlight:  t.inflight,
		Submits:   t.submits,
		Completed: t.completed,
		Failed:    t.failed,
	}
	if len(t.sheds) > 0 {
		st.Sheds = make(map[Reason]int64, len(t.sheds))
		for k, v := range t.sheds {
			st.Sheds[k] = v
		}
	}
	return st
}

// Registry resolves tenant names to Tenant state, creating unknown tenants
// with the default profile. Cardinality is bounded: past MaxTenants live
// tenants, unknown names share the OverflowTenant entry so a name flood
// cannot grow metrics without bound.
type Registry struct {
	mu       sync.Mutex
	def      Profile
	profiles map[string]Profile
	live     map[string]*Tenant
	maxLive  int
	now      func() time.Time
}

// RegistryConfig configures NewRegistry.
type RegistryConfig struct {
	// Default is the profile for tenants without an explicit entry.
	Default Profile
	// Profiles are explicitly configured tenants.
	Profiles []Profile
	// MaxTenants bounds live-tenant cardinality; 0 means
	// DefaultMaxTenants.
	MaxTenants int
	// Now is the clock; nil means time.Now. Injected by tests.
	Now func() time.Time
}

// NewRegistry builds a tenant registry.
func NewRegistry(cfg RegistryConfig) *Registry {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.MaxTenants <= 0 {
		cfg.MaxTenants = DefaultMaxTenants
	}
	r := &Registry{
		def:      cfg.Default.withDefaults(),
		profiles: map[string]Profile{},
		live:     map[string]*Tenant{},
		maxLive:  cfg.MaxTenants,
		now:      cfg.Now,
	}
	for _, p := range cfg.Profiles {
		r.profiles[p.Name] = p.withDefaults()
	}
	return r
}

// Default returns the registry's default profile.
func (r *Registry) Default() Profile { return r.def }

// Get resolves a tenant by name, creating it on first use. Empty or
// invalid names resolve to the default tenant; names beyond the
// cardinality cap fold into the overflow tenant (which uses the default
// profile).
func (r *Registry) Get(name string) *Tenant {
	if name == "" || !ValidName(name) {
		name = DefaultTenant
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.live[name]; ok {
		return t
	}
	prof, configured := r.profiles[name]
	if !configured {
		prof = r.def
		if len(r.live) >= r.maxLive {
			name = OverflowTenant
			if t, ok := r.live[name]; ok {
				return t
			}
		}
	}
	prof.Name = name
	t := &Tenant{
		name:   name,
		prof:   prof,
		bucket: NewBucket(prof.Rate, prof.Burst, r.now),
	}
	r.live[name] = t
	return t
}

// Snapshot returns per-tenant stats for every live tenant.
func (r *Registry) Snapshot() map[string]Stats {
	r.mu.Lock()
	tenants := make([]*Tenant, 0, len(r.live))
	for _, t := range r.live {
		tenants = append(tenants, t)
	}
	r.mu.Unlock()
	out := make(map[string]Stats, len(tenants))
	for _, t := range tenants {
		out[t.name] = t.Stats()
	}
	return out
}
