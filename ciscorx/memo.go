package ciscorx

import (
	"sync"

	"github.com/clarifynet/clarify/rx"
)

// maxMemoEntries bounds each dialect's table. A table that reaches it is
// emptied and refilled on demand, so a long-lived owner fed a stream of
// never-repeating patterns holds a bounded number of automata.
const maxMemoEntries = 4096

// Memo is a table of compiled automata keyed by pattern text, one table per
// dialect (as-path and community patterns compile over different alphabets,
// so the same text may denote two automata).
//
// A compiled *rx.DFA is never mutated after construction, so one Memo may
// serve any number of concurrent callers: the mutex guards only the maps.
// Compilation runs outside the lock; when two callers race on a new
// pattern, the first to store wins and both get its automaton. Errors are
// not memoized, so a bad pattern fails on every call.
//
// A nil *Memo is valid and compiles on every call.
type Memo struct {
	mu   sync.Mutex
	path map[string]*rx.DFA
	comm map[string]*rx.DFA
}

// NewMemo returns an empty table.
func NewMemo() *Memo {
	return &Memo{path: map[string]*rx.DFA{}, comm: map[string]*rx.DFA{}}
}

// Path is CompilePath through the table.
func (m *Memo) Path(pattern string) (*rx.DFA, error) {
	if m == nil {
		return CompilePath(pattern)
	}
	return m.get(m.path, pattern, CompilePath)
}

// Community is CompileCommunity through the table.
func (m *Memo) Community(pattern string) (*rx.DFA, error) {
	if m == nil {
		return CompileCommunity(pattern)
	}
	return m.get(m.comm, pattern, CompileCommunity)
}

func (m *Memo) get(table map[string]*rx.DFA, pattern string, compile func(string) (*rx.DFA, error)) (*rx.DFA, error) {
	m.mu.Lock()
	d, ok := table[pattern]
	m.mu.Unlock()
	if ok {
		return d, nil
	}
	d, err := compile(pattern)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if prev, ok := table[pattern]; ok {
		return prev, nil
	}
	if len(table) >= maxMemoEntries {
		clear(table)
	}
	table[pattern] = d
	return d, nil
}

// Len reports the number of automata held across both dialects. Safe on a
// nil Memo.
func (m *Memo) Len() int {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.path) + len(m.comm)
}
