package lb

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"testing"
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

func TestRingDeterministicAcrossInstances(t *testing.T) {
	// Two rings built from the same fleet must agree on every key: that is
	// what makes the ring a usable stateless fallback across LB restarts.
	f1 := testFleet(t, "10.0.0.1:8080", "10.0.0.2:8080", "10.0.0.3:8080")
	f2 := testFleet(t, "10.0.0.1:8080", "10.0.0.2:8080", "10.0.0.3:8080")
	r1, r2 := newRing(f1, 64), newRing(f2, 64)
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("session-%d", i)
		b1, b2 := r1.Lookup(key, nil), r2.Lookup(key, nil)
		if b1 == nil || b2 == nil || b1.Name != b2.Name {
			t.Fatalf("key %q: ring disagreement: %v vs %v", key, b1, b2)
		}
	}
}

func TestRingSpread(t *testing.T) {
	fleet := testFleet(t, "a:1", "b:1", "c:1")
	r := newRing(fleet, DefaultVirtualNodes)
	if got, want := r.Points(), 3*DefaultVirtualNodes; got != want {
		t.Fatalf("Points() = %d, want %d", got, want)
	}
	counts := map[string]int{}
	const n = 9000
	for i := 0; i < n; i++ {
		counts[r.Lookup(fmt.Sprintf("k%d", i), nil).Name]++
	}
	for name, c := range counts {
		// fnv64a with 128 vnodes spreads within a few x of fair share; the
		// bound guards against a collapse, not perfect balance.
		if c < n/10 {
			t.Errorf("backend %s got %d/%d keys: spread too skewed", name, c, n)
		}
	}
}

// TestRingBalancesLoopbackPairs: two replicas on one host differ only in
// their port, and the ring must still split placement keys between them.
// Over bare FNV-1a, 127.0.0.1:44297 owned about 93% of the ring against
// 127.0.0.1:33399, and a burst of session creates followed that share.
func TestRingBalancesLoopbackPairs(t *testing.T) {
	pairs := [][2]string{{"127.0.0.1:44297", "127.0.0.1:33399"}}
	ports := rand.New(rand.NewPCG(1, 2))
	for len(pairs) < 20 {
		// Ports from the Linux ephemeral range, where httptest listens.
		a, b := 32768+ports.IntN(28232), 32768+ports.IntN(28232)
		if a != b {
			pairs = append(pairs, [2]string{fmt.Sprintf("127.0.0.1:%d", a), fmt.Sprintf("127.0.0.1:%d", b)})
		}
	}
	const n = 10000
	for _, p := range pairs {
		fleet := testFleet(t, p[0], p[1])
		r := newRing(fleet, DefaultVirtualNodes)
		keys := rand.New(rand.NewPCG(7, 7))
		first := 0
		for i := 0; i < n; i++ {
			if r.Lookup(strconv.FormatUint(keys.Uint64(), 36), nil) == fleet[0] {
				first++
			}
		}
		if first < n*3/10 || first > n*7/10 {
			t.Errorf("%s owns %d of %d keys and %s the rest: want each at least 30%%", p[0], first, n, p[1])
		}
	}
}

func TestRingEjectionMovesOnlyOwnedKeys(t *testing.T) {
	fleet := testFleet(t, "a:1", "b:1", "c:1")
	r := newRing(fleet, DefaultVirtualNodes)
	admitted := func(b *Backend) bool { return b.Admitted() }

	const n = 2000
	before := make([]string, n)
	for i := range before {
		before[i] = r.Lookup(fmt.Sprintf("k%d", i), admitted).Name
	}

	setEjected(fleet[1], true) // eject "b:1"
	moved := 0
	for i := range before {
		now := r.Lookup(fmt.Sprintf("k%d", i), admitted)
		if now.Name == "b:1" {
			t.Fatalf("key k%d routed to an ejected backend", i)
		}
		if before[i] != "b:1" && now.Name != before[i] {
			t.Fatalf("key k%d moved from %s to %s though its owner stayed up",
				i, before[i], now.Name)
		}
		if before[i] == "b:1" {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("ejected backend owned zero keys; test is vacuous")
	}

	// Re-admission restores every key to its original owner exactly.
	setEjected(fleet[1], false)
	for i := range before {
		if now := r.Lookup(fmt.Sprintf("k%d", i), admitted).Name; now != before[i] {
			t.Fatalf("key k%d not restored: %s != %s", i, now, before[i])
		}
	}
}

func TestRingNoneEligible(t *testing.T) {
	fleet := testFleet(t, "a:1", "b:1")
	r := newRing(fleet, 8)
	if b := r.Lookup("x", func(*Backend) bool { return false }); b != nil {
		t.Fatalf("Lookup with nothing eligible = %v, want nil", b)
	}
}
