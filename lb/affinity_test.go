package lb

import (
	"testing"
	"time"
)

func testFleet(t *testing.T, hosts ...string) []*Backend {
	t.Helper()
	out := make([]*Backend, 0, len(hosts))
	for _, h := range hosts {
		b, err := newBackend("http://" + h)
		if err != nil {
			t.Fatalf("newBackend(%q): %v", h, err)
		}
		out = append(out, b)
	}
	return out
}

func setEjected(b *Backend, v bool) {
	b.mu.Lock()
	b.ejected = v
	b.mu.Unlock()
}

func TestAffinityPinLifecycle(t *testing.T) {
	fleet := testFleet(t, "a:1", "b:1")
	tab := newAffinityTable(time.Hour, time.Hour)
	defer tab.Stop()

	if got := tab.Get("s1"); got != nil {
		t.Fatalf("Get before Put = %v, want nil", got)
	}
	if tab.Misses() != 1 {
		t.Fatalf("Misses = %d, want 1", tab.Misses())
	}

	tab.Put("s1", fleet[0])
	if got := tab.Get("s1"); got != fleet[0] {
		t.Fatalf("Get = %v, want the pinned backend", got)
	}
	if tab.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tab.Len())
	}

	tab.Remove("s1")
	if got := tab.Get("s1"); got != nil {
		t.Fatalf("Get after Remove = %v, want nil", got)
	}
}

func TestAffinitySweepEvictsIdlePins(t *testing.T) {
	fleet := testFleet(t, "a:1")
	tab := newAffinityTable(10*time.Millisecond, time.Hour)
	defer tab.Stop()

	tab.Put("old", fleet[0])
	time.Sleep(25 * time.Millisecond)
	tab.Put("fresh", fleet[0])

	if n := tab.Sweep(); n != 1 {
		t.Fatalf("Sweep evicted %d, want 1", n)
	}
	if tab.Get("old") != nil {
		t.Fatal("idle pin survived the sweep")
	}
	if tab.Get("fresh") == nil {
		t.Fatal("fresh pin was evicted")
	}
	if tab.Evicted() != 1 {
		t.Fatalf("Evicted = %d, want 1", tab.Evicted())
	}
}
