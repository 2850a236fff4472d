package ambiguity

import "sort"

// StrategyStats aggregates ledgers that ran under one insertion strategy.
// It stores sums, not means, so the ledgers are added one by one. The bit
// sums are floats, so two rollups of the same ledgers agree bit for bit
// only when they add them in the same order.
type StrategyStats struct {
	// Updates counts ledgers aggregated.
	Updates int `json:"updates"`
	// Questions counts clarifying questions asked.
	Questions int `json:"questions"`
	// InitialBits, ResolvedBits and ResidualBits are sums over ledgers.
	InitialBits  float64 `json:"initialBits"`
	ResolvedBits float64 `json:"resolvedBits"`
	ResidualBits float64 `json:"residualBits"`
}

// Add folds one ledger into the stats.
func (s *StrategyStats) Add(l *Ledger) {
	if l == nil {
		return
	}
	s.Updates++
	s.Questions += l.QuestionCount()
	s.InitialBits += l.InitialBits
	s.ResolvedBits += l.ResolvedBits()
	s.ResidualBits += l.ResidualBits
}

// BitsPerQuestion is the aggregate question-efficiency score: total bits
// resolved per question asked (0 when no questions were asked).
func (s *StrategyStats) BitsPerQuestion() float64 {
	if s == nil || s.Questions == 0 {
		return 0
	}
	return s.ResolvedBits / float64(s.Questions)
}

// MeanQuestions is the mean questions per update (0 when empty).
func (s *StrategyStats) MeanQuestions() float64 {
	if s == nil || s.Updates == 0 {
		return 0
	}
	return float64(s.Questions) / float64(s.Updates)
}

// Rollup aggregates ledgers across updates: totals plus per-strategy and
// per-kind breakdowns. The zero value is not ready; use NewRollup. It is
// the rollup of the daemon's /metrics "ambiguity" block and of the
// analyzer's report.
type Rollup struct {
	// Total aggregates every ledger seen.
	Total StrategyStats `json:"total"`
	// UpdatesWithQuestions counts ledgers that asked at least one question.
	UpdatesWithQuestions int `json:"updatesWithQuestions"`
	// Strategies breaks the totals down by insertion strategy name.
	Strategies map[string]*StrategyStats `json:"strategies,omitempty"`
	// Kinds breaks the totals down by update kind ("route-map", "acl").
	Kinds map[string]*StrategyStats `json:"kinds,omitempty"`
}

// NewRollup returns an empty rollup ready to aggregate.
func NewRollup() *Rollup {
	return &Rollup{
		Strategies: map[string]*StrategyStats{},
		Kinds:      map[string]*StrategyStats{},
	}
}

// Add folds one ledger into the rollup. Nil ledgers (updates recorded with
// the ledger off, or pre-v3 journal records) are ignored.
func (r *Rollup) Add(l *Ledger) {
	if r == nil || l == nil {
		return
	}
	r.Total.Add(l)
	if l.QuestionCount() > 0 {
		r.UpdatesWithQuestions++
	}
	if l.Strategy != "" {
		s := r.Strategies[l.Strategy]
		if s == nil {
			s = &StrategyStats{}
			if r.Strategies == nil {
				r.Strategies = map[string]*StrategyStats{}
			}
			r.Strategies[l.Strategy] = s
		}
		s.Add(l)
	}
	if l.Kind != "" {
		k := r.Kinds[l.Kind]
		if k == nil {
			k = &StrategyStats{}
			if r.Kinds == nil {
				r.Kinds = map[string]*StrategyStats{}
			}
			r.Kinds[l.Kind] = k
		}
		k.Add(l)
	}
}

// Clone returns a deep copy of r that shares no map or pointer with it
// (nil for a nil r).
func (r *Rollup) Clone() *Rollup {
	if r == nil {
		return nil
	}
	return &Rollup{Total: r.Total, UpdatesWithQuestions: r.UpdatesWithQuestions,
		Strategies: cloneStats(r.Strategies), Kinds: cloneStats(r.Kinds)}
}

// cloneStats copies a breakdown map, each row by value.
func cloneStats(m map[string]*StrategyStats) map[string]*StrategyStats {
	out := make(map[string]*StrategyStats, len(m))
	for name, s := range m {
		if s != nil {
			c := *s
			out[name] = &c
		}
	}
	return out
}

// StrategyNames returns the strategy keys in sorted order, for stable
// table rendering and Prometheus exposition.
func (r *Rollup) StrategyNames() []string {
	if r == nil {
		return nil
	}
	names := make([]string, 0, len(r.Strategies))
	for name := range r.Strategies {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// KindNames returns the kind keys in sorted order.
func (r *Rollup) KindNames() []string {
	if r == nil {
		return nil
	}
	names := make([]string, 0, len(r.Kinds))
	for name := range r.Kinds {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
