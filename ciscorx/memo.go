package ciscorx

import (
	"encoding/binary"
	"sync"

	"github.com/clarifynet/clarify/rx"
)

// maxMemoEntries bounds each table. A table that reaches it is emptied and
// refilled on demand, so a long-lived owner fed a stream of never-repeating
// patterns holds a bounded number of automata and partitions.
const maxMemoEntries = 4096

// Memo is a table of compiled automata keyed by pattern text, one table per
// dialect (as-path and community patterns compile over different alphabets,
// so the same text may denote two automata). It also keeps, per dialect,
// the partitions of the dialect's universe (rx.Split) taken through it,
// keyed by the exact sequence of patterns whose automata were multiplied.
//
// A compiled *rx.DFA is never mutated after construction, and neither is an
// *rx.Split (ClassDFA only reads it), so one Memo may serve any number of
// concurrent callers: the mutex guards only the maps. Compilation and
// products run outside the lock; when two callers race on a new key, the
// first to store wins and both get its value. Errors are not memoized, so a
// bad pattern fails on every call.
//
// A nil *Memo is valid and compiles and multiplies on every call.
type Memo struct {
	mu         sync.Mutex
	path       map[string]*rx.DFA
	comm       map[string]*rx.DFA
	pathSplits map[string]*rx.Split
	commSplits map[string]*rx.Split
}

// NewMemo returns an empty table.
func NewMemo() *Memo {
	return &Memo{
		path:       map[string]*rx.DFA{},
		comm:       map[string]*rx.DFA{},
		pathSplits: map[string]*rx.Split{},
		commSplits: map[string]*rx.Split{},
	}
}

// Path is CompilePath through the table.
func (m *Memo) Path(pattern string) (*rx.DFA, error) {
	if m == nil {
		return CompilePath(pattern)
	}
	return memoize(m, m.path, pattern, CompilePath)
}

// Community is CompileCommunity through the table.
func (m *Memo) Community(pattern string) (*rx.DFA, error) {
	if m == nil {
		return CompileCommunity(pattern)
	}
	return memoize(m, m.comm, pattern, CompileCommunity)
}

// PathSplit is rx.NewSplit(ValidPath(), dfas) through the table, where dfas
// are the as-path automata of patterns, in order.
func (m *Memo) PathSplit(patterns []string, dfas []*rx.DFA) *rx.Split {
	if m == nil {
		return rx.NewSplit(ValidPath(), dfas)
	}
	return m.split(m.pathSplits, ValidPath(), patterns, dfas)
}

// CommunitySplit is rx.NewSplit(ValidCommunity(), dfas) through the table,
// where dfas are the community automata of patterns, in order.
func (m *Memo) CommunitySplit(patterns []string, dfas []*rx.DFA) *rx.Split {
	if m == nil {
		return rx.NewSplit(ValidCommunity(), dfas)
	}
	return m.split(m.commSplits, ValidCommunity(), patterns, dfas)
}

// split keys the product by its pattern sequence, each pattern prefixed by
// its length so that no two sequences share a key.
func (m *Memo) split(table map[string]*rx.Split, valid *rx.DFA, patterns []string, dfas []*rx.DFA) *rx.Split {
	var key []byte
	for _, p := range patterns {
		key = binary.AppendUvarint(key, uint64(len(p)))
		key = append(key, p...)
	}
	s, _ := memoize(m, table, string(key), func(string) (*rx.Split, error) {
		return rx.NewSplit(valid, dfas), nil // a product cannot fail
	})
	return s
}

func memoize[V any](m *Memo, table map[string]V, key string, build func(string) (V, error)) (V, error) {
	m.mu.Lock()
	v, ok := table[key]
	m.mu.Unlock()
	if ok {
		return v, nil
	}
	v, err := build(key)
	if err != nil {
		return v, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if prev, ok := table[key]; ok {
		return prev, nil
	}
	if len(table) >= maxMemoEntries {
		clear(table)
	}
	table[key] = v
	return v, nil
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
