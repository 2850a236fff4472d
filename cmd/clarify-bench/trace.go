package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// spanLog keeps the traced run's spans in memory; they are written as JSONL
// when the run ends. A nil *spanLog records nothing.
type spanLog struct {
	mu       sync.Mutex
	workload string
	origin   time.Time
	spans    []span
}

// span is one timed call into a layer on behalf of one update.
type span struct {
	Workload string  `json:"workload"`
	Update   int     `json:"update"`
	Name     string  `json:"name"`
	StartMs  float64 `json:"startMs"` // since the run started
	DurMs    float64 `json:"durMs"`
}

func newSpanLog(workload string) *spanLog {
	return &spanLog{workload: workload, origin: time.Now()}
}

func (l *spanLog) add(update int, name string, start time.Time, d time.Duration) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{Workload: l.workload, Update: update, Name: name,
		StartMs: ms(start.Sub(l.origin)), DurMs: ms(d)})
	l.mu.Unlock()
}

// writeSpans writes the logs' spans to path as JSON lines.
func writeSpans(path string, logs []*spanLog) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, l := range logs {
		for _, s := range l.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return fmt.Errorf("trace output: %w", err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace output: %w", err)
	}
	return f.Close()
}
