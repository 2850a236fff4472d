package disambig

import (
	"errors"
	"reflect"
	"sync"
	"testing"
)

// liveOracle is a stand-in operator that gives the same answer (or error)
// to every question and counts how many it was asked.
type liveOracle struct {
	answer bool
	err    error
	asked  int
}

func (o *liveOracle) ChooseRoute(RouteQuestion) (bool, error) { o.asked++; return o.answer, o.err }
func (o *liveOracle) ChooseACL(ACLQuestion) (bool, error)     { o.asked++; return o.answer, o.err }

func TestTranscript(t *testing.T) {
	var routeQ RouteQuestion
	var aclQ ACLQuestion
	ra := func(preferNew bool) Answer {
		return Answer{Kind: "route-map", Question: routeQ.String(), PreferNew: preferNew}
	}
	aa := func(preferNew bool) Answer {
		return Answer{Kind: "acl", Question: aclQ.String(), PreferNew: preferNew}
	}
	type ask struct {
		kind    string // "route-map" or "acl"
		want    bool
		wantErr bool
	}
	cases := []struct {
		name     string
		script   []Answer
		live     *liveOracle // nil: no live oracle
		asks     []ask
		wantErr  bool     // Err() reports a divergence afterwards
		wantLive int      // questions the live oracle was asked
		want     []Answer // Answers() afterwards
	}{
		{
			name:   "replays in order",
			script: []Answer{ra(true), aa(false), ra(false)},
			asks:   []ask{{kind: "route-map", want: true}, {kind: "acl"}, {kind: "route-map"}},
			want:   []Answer{ra(true), aa(false), ra(false)},
		},
		{
			name:    "kind mismatch without live oracle",
			script:  []Answer{aa(true)},
			asks:    []ask{{kind: "route-map", wantErr: true}},
			wantErr: true,
		},
		{
			name:    "kind mismatch does not fall through to live oracle",
			script:  []Answer{ra(true), aa(true)},
			live:    &liveOracle{answer: true},
			asks:    []ask{{kind: "route-map", want: true}, {kind: "route-map", wantErr: true}},
			wantErr: true,
			want:    []Answer{ra(true)},
		},
		{
			name:    "exhausted without live oracle",
			script:  []Answer{ra(true)},
			asks:    []ask{{kind: "route-map", want: true}, {kind: "acl", wantErr: true}},
			wantErr: true,
			want:    []Answer{ra(true)},
		},
		{
			name:     "exhausted script hands over to live oracle",
			script:   []Answer{ra(false)},
			live:     &liveOracle{answer: true},
			asks:     []ask{{kind: "route-map"}, {kind: "acl", want: true}, {kind: "route-map", want: true}},
			wantLive: 2,
			want:     []Answer{ra(false), aa(true), ra(true)},
		},
		{
			name:     "failed live answer is not recorded",
			live:     &liveOracle{err: errors.New("question timed out")},
			asks:     []ask{{kind: "acl", wantErr: true}},
			wantLive: 1,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := &Transcript{Script: c.script}
			if c.live != nil {
				tr.Route, tr.ACL = c.live, c.live
			}
			for i, a := range c.asks {
				var got bool
				var err error
				if a.kind == "acl" {
					got, err = tr.ChooseACL(aclQ)
				} else {
					got, err = tr.ChooseRoute(routeQ)
				}
				if (err != nil) != a.wantErr || got != a.want {
					t.Fatalf("question %d (%s) = %v, %v; want %v, error %v", i+1, a.kind, got, err, a.want, a.wantErr)
				}
			}
			if err := tr.Err(); (err != nil) != c.wantErr {
				t.Errorf("Err() = %v, want error %v", err, c.wantErr)
			}
			if c.live != nil && c.live.asked != c.wantLive {
				t.Errorf("live oracle asked %d questions, want %d", c.live.asked, c.wantLive)
			}
			if got := tr.Answers(); !reflect.DeepEqual(got, c.want) {
				t.Errorf("Answers() = %+v, want %+v", got, c.want)
			}
		})
	}
}

// TestTranscriptConcurrentQuestions: questions asked from several goroutines
// at once are each answered by the live oracle and each recorded once.
func TestTranscriptConcurrentQuestions(t *testing.T) {
	live := FuncRouteOracle(func(RouteQuestion) (bool, error) { return true, nil })
	tr := &Transcript{Script: []Answer{{Kind: "route-map"}}, Route: live}
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := tr.ChooseRoute(RouteQuestion{}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	got := tr.Answers()
	prefer := 0
	for _, a := range got {
		if a.PreferNew {
			prefer++
		}
	}
	if len(got) != n || prefer != n-1 || tr.Err() != nil {
		t.Fatalf("Answers() = %d answers, %d live; Err() = %v; want %d answers, %d of them live", len(got), prefer, tr.Err(), n, n-1)
	}
}
