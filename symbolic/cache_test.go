package symbolic

import (
	"net/netip"
	"sync"
	"testing"

	"github.com/clarifynet/clarify/ios"
)

func mustPrefix(t *testing.T, s string) netip.Prefix {
	t.Helper()
	p, err := netip.ParsePrefix(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

const cacheTestConfig = `ip as-path access-list D0 permit _32$
ip prefix-list D1 seq 10 permit 10.0.0.0/8 le 24
ip community-list expanded C0 permit _65000:100_
route-map RM deny 10
 match as-path D0
route-map RM permit 20
 match community C0
 set local-preference 200
route-map RM permit 30
 match ip address prefix-list D1
`

func TestFingerprintDeterministic(t *testing.T) {
	a := ios.MustParse(cacheTestConfig)
	b := ios.MustParse(cacheTestConfig)
	if Fingerprint(a) != Fingerprint(b) {
		t.Error("identical configs have different fingerprints")
	}
	if Fingerprint(a, b) != Fingerprint(b, a) {
		// Patterns are deduped and sorted per config set, so order of the
		// set is immaterial when the union is equal.
		t.Error("fingerprint depends on config order despite equal pattern union")
	}
	// A new community pattern must change the fingerprint.
	c := ios.MustParse(cacheTestConfig)
	c.AddCommunityList("C9", true, ios.CommunityListEntry{Permit: true, Values: []string{"_65000:999_"}})
	if Fingerprint(a) == Fingerprint(c) {
		t.Error("fingerprint unchanged after adding a community pattern")
	}
	// Prefix lists do not participate in the universe: adding one must NOT
	// change the fingerprint.
	d := ios.MustParse(cacheTestConfig)
	d.AddPrefixList("P9", ios.PrefixListEntry{Seq: 10, Permit: true, Prefix: mustPrefix(t, "172.16.0.0/12"), Le: 24})
	if Fingerprint(a) != Fingerprint(d) {
		t.Error("fingerprint changed by a prefix list, which is not a universe input")
	}
}

func TestSpaceCacheHitMissCheckout(t *testing.T) {
	cfg := ios.MustParse(cacheTestConfig)
	cache := NewSpaceCache()

	s1, err := cache.Acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := cache.Acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s1 == s2 {
		t.Fatal("two outstanding acquisitions share one space")
	}
	if st := cache.Stats(); st.Hits != 0 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 0 hits / 2 misses", st)
	}

	cache.Release(s1)
	cache.Release(s2)
	s3, err := cache.Acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s3 != s1 && s3 != s2 {
		t.Error("released space was not reused")
	}
	st := cache.Stats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 1 hit / 2 misses", st)
	}
	if st.Idle != 1 {
		t.Errorf("idle = %d, want 1 (one released space still parked)", st.Idle)
	}
}

func TestSpaceCacheNilSafe(t *testing.T) {
	cfg := ios.MustParse(cacheTestConfig)
	var cache *SpaceCache
	space, err := cache.Acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if space == nil {
		t.Fatal("nil cache returned nil space")
	}
	cache.Release(space) // must not panic
}

// TestSpaceCacheReusedSpaceWorks: a cache hit must behave exactly like a
// fresh space on the §2.1-style queries the pipeline issues.
func TestSpaceCacheReusedSpaceWorks(t *testing.T) {
	cfg := ios.MustParse(cacheTestConfig)
	fresh, err := NewRouteSpace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewSpaceCache()
	first, err := cache.Acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cache.Release(first)
	reused, err := cache.Acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Release(reused)

	rm := cfg.RouteMaps["RM"]
	want, err := fresh.FirstMatch(cfg, rm)
	if err != nil {
		t.Fatal(err)
	}
	got, err := reused.FirstMatch(cfg, rm)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("region counts differ: %d vs %d", len(want), len(got))
	}
	for i := range want {
		wc := fresh.Pool.SatCount(want[i])
		gc := reused.Pool.SatCount(got[i])
		if wc.Cmp(gc) != 0 {
			t.Errorf("region %d: satcount %v (fresh) vs %v (reused)", i, wc, gc)
		}
	}
}

// TestSpaceCacheConcurrent drives one shared cache from many goroutines
// (run under -race): checkout semantics must keep each acquired space
// private to its holder even when fingerprints collide.
func TestSpaceCacheConcurrent(t *testing.T) {
	cache := NewSpaceCache()
	cfg := ios.MustParse(cacheTestConfig)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				space, err := cache.Acquire(cfg)
				if err != nil {
					errs <- err
					return
				}
				rm := cfg.RouteMaps["RM"]
				regions, err := space.FirstMatch(cfg, rm)
				if err != nil {
					errs <- err
					cache.Release(space)
					return
				}
				if _, _, err := space.Witness(regions[1]); err != nil {
					errs <- err
				}
				cache.Release(space)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Hits+st.Misses != 64 {
		t.Errorf("hits+misses = %d, want 64", st.Hits+st.Misses)
	}
	if st.Hits == 0 {
		t.Error("no cache hits across 64 same-fingerprint acquisitions")
	}
}

// TestSpaceCacheSharesAutomata builds spaces with different fingerprints
// that share patterns through one cache: a second space compiles only its
// new regex, a community literal compiles nothing, and all hold the cache's
// table.
func TestSpaceCacheSharesAutomata(t *testing.T) {
	a := ios.MustParse(cacheTestConfig)
	b := ios.MustParse(cacheTestConfig)
	b.AddCommunityList("C9", true, ios.CommunityListEntry{Permit: true, Values: []string{"_65000:9.._"}})
	c := ios.MustParse(cacheTestConfig)
	c.AddCommunityList("C9", true, ios.CommunityListEntry{Permit: true, Values: []string{"_65000:999_"}})
	if Fingerprint(a) == Fingerprint(b) || Fingerprint(a) == Fingerprint(c) {
		t.Fatal("test configs share a fingerprint")
	}
	cache := NewSpaceCache()
	sa, err := cache.Acquire(a)
	if err != nil {
		t.Fatal(err)
	}
	held := cache.Stats().Automata
	if held != 1 { // _32$; the literal _65000:100_ is carved, not compiled
		t.Fatalf("after the first space the table holds %d automata, want 1", held)
	}
	shared, err := sa.Automata().Path("_32$")
	if err != nil {
		t.Fatal(err)
	}
	sb, err := cache.Acquire(b)
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Misses != 2 || st.Automata != held+1 {
		t.Errorf("stats = %+v, want 2 misses and %d automata (one new regex)", st, held+1)
	}
	if _, err := cache.Acquire(c); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Misses != 3 || st.Automata != held+1 {
		t.Errorf("stats = %+v, want 3 misses and still %d automata (a literal adds none)", st, held+1)
	}
	if sa.Automata() != sb.Automata() {
		t.Error("spaces from one cache hold different automaton tables")
	}
	if again, _ := sb.Automata().Path("_32$"); again != shared {
		t.Error("the second space recompiled a pattern the first had compiled")
	}

	// Without a cache each space gets its own table.
	fa, err := NewRouteSpace(a)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := NewRouteSpace(a)
	if err != nil {
		t.Fatal(err)
	}
	if fa.Automata() == nil || fa.Automata() == fb.Automata() {
		t.Error("cache-less spaces must each have a private table")
	}
}
