package disambig

import (
	"fmt"
	"sync"
)

// Answer is one resolved disambiguation question: the rendered differential
// example shown to the operator and which option they chose. A list of
// answers in question order is the Q&A transcript that journal records and
// session snapshots carry, and that a Transcript replays.
type Answer struct {
	// Kind is "route-map" or "acl".
	Kind string `json:"kind"`
	// Question is the full OPTION 1 / OPTION 2 rendering shown.
	Question string `json:"question"`
	// PreferNew is true when the operator chose OPTION 1 (the new rule
	// applies to the witness input).
	PreferNew bool `json:"preferNew"`
}

// Transcript is both the recorder and the replayer of an update's Q&A. It
// implements RouteOracle and ACLOracle: questions are answered from Script
// in order, each checked against its recorded kind, and once Script runs out
// they go to the live oracle (Route or ACL). Every answer it returns is
// recorded, so Answers is the update's full transcript — the replayed prefix
// followed by the live answers.
//
// The pipeline is deterministic given the same config, intent, and answers,
// so a faithful script is asked exactly its own questions. A kind mismatch,
// or a question past the end of Script with no live oracle, means the
// pipeline diverged from the recording: the question fails and Err reports
// why. A Transcript is safe for concurrent use; the live oracle is called
// without holding its lock.
type Transcript struct {
	// Script is the recorded answers to replay, in question order.
	Script []Answer
	// Route and ACL are the live oracles asked once Script is spent; nil
	// means a question past the script is a divergence.
	Route RouteOracle
	ACL   ACLOracle

	mu      sync.Mutex
	next    int
	answers []Answer
	err     error
}

// ChooseRoute implements RouteOracle.
func (t *Transcript) ChooseRoute(q RouteQuestion) (bool, error) {
	preferNew, live, err := t.replay("route-map", t.Route != nil)
	if live {
		preferNew, err = t.Route.ChooseRoute(q)
	}
	if err == nil {
		t.record(Answer{Kind: "route-map", Question: q.String(), PreferNew: preferNew})
	}
	return preferNew, err
}

// ChooseACL implements ACLOracle.
func (t *Transcript) ChooseACL(q ACLQuestion) (bool, error) {
	preferNew, live, err := t.replay("acl", t.ACL != nil)
	if live {
		preferNew, err = t.ACL.ChooseACL(q)
	}
	if err == nil {
		t.record(Answer{Kind: "acl", Question: q.String(), PreferNew: preferNew})
	}
	return preferNew, err
}

// replay pops the scripted answer to the next question, of the given kind.
// live reports that the script is spent and a live oracle should answer.
func (t *Transcript) replay(kind string, hasLive bool) (preferNew, live bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.next >= len(t.Script) {
		if hasLive {
			return false, true, nil
		}
		err = fmt.Errorf("disambig: transcript exhausted: pipeline asked question %d of a %d-answer script",
			t.next+1, len(t.Script))
	} else if a := t.Script[t.next]; a.Kind != kind {
		err = fmt.Errorf("disambig: transcript diverged: question %d is %s, the script has %s",
			t.next+1, kind, a.Kind)
	} else {
		t.next++
		return a.PreferNew, false, nil
	}
	if t.err == nil {
		t.err = err
	}
	return false, false, err
}

// record appends one returned answer to the transcript.
func (t *Transcript) record(a Answer) {
	t.mu.Lock()
	t.answers = append(t.answers, a)
	t.mu.Unlock()
}

// Answers returns a copy of every answer returned so far, in question order.
func (t *Transcript) Answers() []Answer {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Answer(nil), t.answers...)
}

// Err reports the first divergence from the script: a kind mismatch, or a
// question past its end with no live oracle. Live oracle errors are not
// divergences and are not reported here.
func (t *Transcript) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}
