package obs

import (
	"sync"
	"testing"
)

func mkTrace(name string) *Trace {
	tr := NewTrace(name)
	tr.Finish()
	return tr
}

func TestRingEvictionOrder(t *testing.T) {
	r := NewRing(3)
	var ids []string
	for i := 0; i < 5; i++ {
		tr := mkTrace("update")
		ids = append(ids, tr.ID)
		r.Add(tr)
	}
	if r.Total() != 5 {
		t.Fatalf("Total = %d, want 5", r.Total())
	}
	list := r.List()
	if len(list) != 3 {
		t.Fatalf("List len = %d, want 3", len(list))
	}
	// Newest first: ids[4], ids[3], ids[2].
	for i, want := range []string{ids[4], ids[3], ids[2]} {
		if list[i].ID != want {
			t.Fatalf("List[%d] = %s, want %s", i, list[i].ID, want)
		}
	}
	// Evicted traces are unresolvable.
	if _, ok := r.Get(ids[0]); ok {
		t.Fatal("evicted trace still resolvable")
	}
	if _, ok := r.Get(ids[4]); !ok {
		t.Fatal("recent trace not resolvable")
	}
}

// TestRingSharedTraceID: two traces may share an ID (updates continuing
// one propagated trace context); evicting the older must leave the newer
// resolvable.
func TestRingSharedTraceID(t *testing.T) {
	r := NewRing(2)
	older, newer := mkTrace("update"), mkTrace("update")
	newer.ID = older.ID
	r.Add(older)
	r.Add(newer)
	r.Add(mkTrace("update")) // evicts older
	if got, ok := r.Get(older.ID); !ok || got != newer {
		t.Fatalf("Get(%s) = %p, %v; want the newer trace %p", older.ID, got, ok, newer)
	}
}

func TestRingConcurrent(t *testing.T) {
	r := NewRing(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tr := mkTrace("update")
				r.Add(tr)
				r.Get(tr.ID)
				r.List()
			}
		}(g)
	}
	wg.Wait()
	if r.Total() != 400 {
		t.Fatalf("Total = %d, want 400", r.Total())
	}
}
