package ambiguity

import "sort"

// StrategyStats aggregates ledgers that ran under one insertion strategy.
// Sums (not means) are stored so partial aggregates merge by addition — the
// LB adds per-backend rollups. The bit sums are floats, so a merged sum can
// differ from one rollup's over the same ledgers in the last bits.
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

// Merge folds another partial aggregate into the stats.
func (s *StrategyStats) Merge(o StrategyStats) {
	s.Updates += o.Updates
	s.Questions += o.Questions
	s.InitialBits += o.InitialBits
	s.ResolvedBits += o.ResolvedBits
	s.ResidualBits += o.ResidualBits
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
// the JSON body of GET /debug/ambiguity, the unit the LB merges per
// backend, and the analyzer's per-category row.
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

// Merge folds another rollup (e.g. one backend's, one segment's) into r.
func (r *Rollup) Merge(o *Rollup) {
	if r == nil || o == nil {
		return
	}
	r.Total.Merge(o.Total)
	r.UpdatesWithQuestions += o.UpdatesWithQuestions
	for name, s := range o.Strategies {
		if s == nil {
			continue
		}
		dst := r.Strategies[name]
		if dst == nil {
			dst = &StrategyStats{}
			if r.Strategies == nil {
				r.Strategies = map[string]*StrategyStats{}
			}
			r.Strategies[name] = dst
		}
		dst.Merge(*s)
	}
	for name, s := range o.Kinds {
		if s == nil {
			continue
		}
		dst := r.Kinds[name]
		if dst == nil {
			dst = &StrategyStats{}
			if r.Kinds == nil {
				r.Kinds = map[string]*StrategyStats{}
			}
			r.Kinds[name] = dst
		}
		dst.Merge(*s)
	}
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
