package ambiguity

import (
	"bytes"
	"encoding/json"
	"testing"
)

func ledger(kind, strategy string, initial, residual float64, questions int) *Ledger {
	l := &Ledger{Kind: kind, Strategy: strategy, InitialBits: initial, ResidualBits: residual}
	gain := 0.0
	if questions > 0 {
		gain = (initial - residual) / float64(questions)
	}
	for i := 0; i < questions; i++ {
		l.Questions = append(l.Questions, Question{GainBits: gain, PreferNew: i%2 == 0})
	}
	return l
}

func TestRollupAdd(t *testing.T) {
	r := NewRollup()
	r.Add(ledger("route-map", "binary", 10, 0, 2))
	r.Add(ledger("route-map", "linear", 8, 2, 3))
	r.Add(ledger("acl", "binary", 4, 0, 0))
	r.Add(nil) // ledger-off updates are ignored, not counted

	if r.Total.Updates != 3 || r.Total.Questions != 5 {
		t.Fatalf("total = %+v, want 3 updates, 5 questions", r.Total)
	}
	if r.UpdatesWithQuestions != 2 {
		t.Errorf("UpdatesWithQuestions = %d, want 2", r.UpdatesWithQuestions)
	}
	// ResolvedBits is initial−residual per ledger, questions or not (the
	// acl run resolved its 4 bits via an equivalence proof, zero questions).
	if r.Total.InitialBits != 22 || r.Total.ResolvedBits != 20 || r.Total.ResidualBits != 2 {
		t.Errorf("total bits = %+v, want 22 initial / 20 resolved / 2 residual", r.Total)
	}
	if b := r.Strategies["binary"]; b == nil || b.Updates != 2 || b.Questions != 2 {
		t.Errorf("binary stats = %+v, want 2 updates, 2 questions", b)
	}
	if k := r.Kinds["acl"]; k == nil || k.Updates != 1 || k.Questions != 0 {
		t.Errorf("acl stats = %+v, want 1 update, 0 questions", k)
	}
	if got := r.StrategyNames(); len(got) != 2 || got[0] != "binary" || got[1] != "linear" {
		t.Errorf("StrategyNames = %v, want sorted [binary linear]", got)
	}
	if got := r.KindNames(); len(got) != 2 || got[0] != "acl" || got[1] != "route-map" {
		t.Errorf("KindNames = %v, want sorted [acl route-map]", got)
	}
}

// TestRollupClone: a clone marshals to the source's JSON and shares no map
// or row with it, so adding to the source leaves the clone as it was.
func TestRollupClone(t *testing.T) {
	r := NewRollup()
	r.Add(ledger("route-map", "binary", 10.25, 0, 2))
	r.Add(ledger("acl", "top-bottom", 9, 3.5, 2))
	c := r.Clone()
	want, _ := json.Marshal(r)
	got, _ := json.Marshal(c)
	if !bytes.Equal(want, got) {
		t.Fatalf("clone diverges from source:\nsource %s\nclone  %s", want, got)
	}
	for name, s := range r.Strategies {
		if c.Strategies[name] == s {
			t.Errorf("clone shares strategy row %q", name)
		}
	}
	for name, s := range r.Kinds {
		if c.Kinds[name] == s {
			t.Errorf("clone shares kind row %q", name)
		}
	}
	r.Add(ledger("route-map", "linear", 8, 2, 3))
	if got2, _ := json.Marshal(c); !bytes.Equal(got, got2) {
		t.Errorf("adding to the source changed the clone:\nbefore %s\nafter  %s", got, got2)
	}
	if len(c.Strategies) != 2 || c.Total.Updates != 2 {
		t.Errorf("clone = %+v, want its 2 updates over 2 strategies", c)
	}
	var nilRollup *Rollup
	if nilRollup.Clone() != nil {
		t.Error("Clone of a nil rollup must be nil")
	}
}

func TestStrategyStatsHelpers(t *testing.T) {
	var nilStats *StrategyStats
	if nilStats.BitsPerQuestion() != 0 || nilStats.MeanQuestions() != 0 {
		t.Error("nil stats helpers must return 0")
	}
	s := &StrategyStats{Updates: 4, Questions: 8, ResolvedBits: 16}
	if got := s.BitsPerQuestion(); got != 2 {
		t.Errorf("BitsPerQuestion = %v, want 2", got)
	}
	if got := s.MeanQuestions(); got != 2 {
		t.Errorf("MeanQuestions = %v, want 2", got)
	}
	empty := &StrategyStats{}
	if empty.BitsPerQuestion() != 0 || empty.MeanQuestions() != 0 {
		t.Error("empty stats must not divide by zero")
	}
}
