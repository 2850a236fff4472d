package clarify

import (
	"context"
	"encoding/json"
	"fmt"
	"math/bits"
	"math/rand"
	"net/netip"
	"strings"
	"sync"
	"testing"

	"github.com/clarifynet/clarify/analysis"
	"github.com/clarifynet/clarify/disambig"
	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/llm"
	"github.com/clarifynet/clarify/obs"
	"github.com/clarifynet/clarify/spec"
	"github.com/clarifynet/clarify/symbolic"
	"github.com/clarifynet/clarify/workload"
)

func mustEquivalentMaps(t *testing.T, a, b *ios.Config, mapName string) {
	t.Helper()
	space, err := symbolic.NewRouteSpace(a, b)
	if err != nil {
		t.Fatal(err)
	}
	eq, err := analysis.EquivalentRouteMaps(space, a, a.RouteMaps[mapName], b, b.RouteMaps[mapName])
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatalf("configurations not equivalent:\n--- a ---\n%s\n--- b ---\n%s", a.Print(), b.Print())
	}
}

// TestConcurrentSubmits drives one session from two goroutines (run under
// -race): Submit must work against a config snapshot and install its result
// under the session mutex, so neither call observes a torn config and the
// counters add up. Regression test for the unguarded Session.Config access.
func TestConcurrentSubmits(t *testing.T) {
	s := &Session{
		Client:      llm.NewSimLLM(),
		Config:      ios.MustParse(paperISPOut),
		RouteOracle: disambig.FuncRouteOracle(func(q disambig.RouteQuestion) (bool, error) { return true, nil }),
		SpaceCache:  symbolic.NewSpaceCache(),
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Submit(context.Background(), paperPrompt, "ISP_OUT"); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Updates != 2 {
		t.Errorf("updates = %d, want 2", st.Updates)
	}
	// Last writer wins: the final config holds at least one insertion.
	final := s.CurrentConfig()
	if n := len(final.RouteMaps["ISP_OUT"].Stanzas); n < 4 {
		t.Errorf("final map has %d stanzas, want >= 4", n)
	}
}

// TestConcurrentSessionsSharedCache runs separate sessions over one shared
// SpaceCache (run under -race), the daemon's configuration.
func TestConcurrentSessionsSharedCache(t *testing.T) {
	cache := symbolic.NewSpaceCache()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := &Session{
				Client:      llm.NewSimLLM(),
				Config:      ios.MustParse(paperISPOut),
				RouteOracle: disambig.FuncRouteOracle(func(q disambig.RouteQuestion) (bool, error) { return true, nil }),
				SpaceCache:  cache,
			}
			if _, err := s.Submit(context.Background(), paperPrompt, "ISP_OUT"); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Hits+st.Misses == 0 {
		t.Error("shared cache was never consulted")
	}
}

// aclUpdateCase is one ACL update: an intent aimed at an entry of a corpus
// ACL with the opposite action, and an operator who prefers the new entry
// over every entry from threshold on.
type aclUpdateCase struct {
	base      *ios.Config
	name      string
	intent    string
	threshold int
}

// aimedACLIntents draws n updates over the cloud and campus ACL corpora,
// each aimed at a random entry of its ACL, in the SimLLM grammar.
func aimedACLIntents(rng *rand.Rand, n int) []aclUpdateCase {
	corpus := append(workload.Cloud(1, workload.CloudACLCount, 0).ACLConfigs, workload.Campus(1, 300, 0).ACLConfigs...)
	var out []aclUpdateCase
	for i := 0; i < n; i++ {
		base := corpus[i*len(corpus)/n]
		for name, acl := range base.ACLs {
			e := acl.Entries[rng.Intn(len(acl.Entries))]
			action, proto := "permits", "tcp"
			if e.Permit {
				action = "denies"
			}
			if e.Protocol.Value == 17 || e.Protocol.Any && rng.Intn(2) == 0 {
				proto = "udp"
			}
			src := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(rng.Intn(250)), byte(rng.Intn(250)), 0}), 24)
			if !e.Src.Any {
				src = netip.PrefixFrom(e.Src.Addr, 24).Masked()
			}
			dst := "any host"
			if !e.Dst.Any {
				pfx := netip.PrefixFrom(e.Dst.Addr, 32-bits.Len32(e.Dst.Wildcard)).Masked()
				dst = pfx.String()
				if pfx.Bits() == 32 {
					dst = "host " + pfx.Addr().String()
				}
			}
			port := 1024 + rng.Intn(40000)
			switch e.DstPort.Op {
			case ios.PortEq:
				port = int(e.DstPort.Lo)
			case ios.PortRange:
				port = int(e.DstPort.Lo) + rng.Intn(int(e.DstPort.Hi-e.DstPort.Lo)+1)
			}
			out = append(out, aclUpdateCase{base: base, name: name, threshold: rng.Intn(len(acl.Entries) + 1),
				intent: fmt.Sprintf("Add an entry that %s %s traffic from %s to %s on port %d.", action, proto, src, dst, port)})
		}
	}
	return out
}

// TestConcurrentACLUpdates: ACL updates through Session.Submit on separate
// sessions, four goroutines at a time, each followed by the library's
// verification of its snippet against its spec and against the spec
// widened to 10.0.0.0/8 sources with the other action, and by its
// insertion into the base ACL. All of them draw packet spaces from
// one free list and release them (run under -race). Every outcome must
// equal a serial run's: overlaps, questions and their witness packets,
// position, ledger, configuration and violations.
func TestConcurrentACLUpdates(t *testing.T) {
	cases := aimedACLIntents(rand.New(rand.NewSource(32)), 40)
	run := func(i int) (out string, questions int, err error) {
		c := cases[i]
		oracle := disambig.FuncACLOracle(func(q disambig.ACLQuestion) (bool, error) { return q.ProbedEntry >= c.threshold, nil })
		s := &Session{Client: llm.NewSimLLM(), Config: c.base, ACLOracle: oracle, Observer: obs.SinkFunc(func(*obs.Trace) {})}
		res, err := s.Submit(context.Background(), c.intent, c.name)
		if err != nil {
			return "", 0, fmt.Errorf("%s %q: %v", c.name, c.intent, err)
		}
		led, err := json.Marshal(res.ACLInsert.Ambiguity)
		if err != nil {
			return "", 0, err
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%v %q %d %s\n%s", res.ACLInsert.Overlaps, res.ACLInsert.Questions, res.ACLInsert.Position, led, res.Config.Print())
		snippet := ios.MustParse(res.SnippetText)
		var name string
		for name = range snippet.ACLs {
		}
		as, err := spec.ParseACLSpec([]byte(res.SpecJSON))
		if err != nil {
			return "", 0, err
		}
		wide := *as
		wide.Src, wide.Permit = "10.0.0.0/8", !as.Permit
		for _, as := range []*spec.ACLSpec{as, &wide} {
			violations, err := spec.VerifyACLSnippet(snippet, name, as)
			if err != nil {
				return "", 0, err
			}
			fmt.Fprintf(&b, "%+v\n", violations)
		}
		ins, err := disambig.InsertACLEntry(c.base, c.name, snippet, name, oracle)
		if err != nil {
			return "", 0, err
		}
		fmt.Fprintf(&b, "%v %q %d\n%s", ins.Overlaps, ins.Questions, ins.Position, ins.Config.Print())
		return b.String(), len(res.ACLInsert.Questions), nil
	}
	serial := make([]string, len(cases))
	questions := 0
	for i := range cases {
		out, n, err := run(i)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = out
		questions += n
	}
	if questions < len(cases)/2 {
		t.Fatalf("%d updates asked %d questions: inputs too narrow to mean anything", len(cases), questions)
	}
	t.Logf("%d updates, %d questions", len(cases), questions)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range cases {
				i := (k + g*len(cases)/4) % len(cases)
				out, _, err := run(i)
				if err == nil && out != serial[i] {
					err = fmt.Errorf("%s %q: concurrent outcome\n%s\nserial\n%s", cases[i].name, cases[i].intent, out, serial[i])
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentRouteUpdates is TestConcurrentACLUpdates for route maps:
// updates to the cloud corpus's overlapping maps, each on a session of its
// own with a fresh community, run first serially with a private automaton
// table per space and then on four goroutines over one SpaceCache (run
// under -race). The communities make every space a cache miss of its own,
// while spaces over one base map share its as-path and community
// partitions through the cache's table. Every outcome must equal the serial
// run's: overlaps, questions and their witness routes, position, ledger and
// configuration.
func TestConcurrentRouteUpdates(t *testing.T) {
	type routeCase struct {
		base      *ios.Config
		name      string
		intent    string
		threshold int
	}
	var maps []*ios.Config
	for _, cfg := range workload.Cloud(1, 0, 200).RouteMapConfigs {
		if len(cfg.CommunityLists) > 0 {
			maps = append(maps, cfg)
		}
	}
	rng := rand.New(rand.NewSource(33))
	cases := make([]routeCase, 24)
	for i := range cases {
		base := maps[i%6] // four updates per map, so partitions repeat
		name := onlyRouteMap(base)
		cases[i] = routeCase{base: base, name: name, intent: cloudRouteIntent(rng, i%4),
			threshold: rng.Intn(len(base.RouteMaps[name].Stanzas) + 1)}
	}
	run := func(i int, cache *symbolic.SpaceCache) (out string, questions int, err error) {
		c := cases[i]
		s := &Session{
			Client:      llm.NewSimLLM(),
			Config:      c.base,
			RouteOracle: disambig.FuncRouteOracle(func(q disambig.RouteQuestion) (bool, error) { return q.ProbedStanza >= c.threshold, nil }),
			SpaceCache:  cache,
			Observer:    obs.SinkFunc(func(*obs.Trace) {}),
		}
		res, err := s.Submit(context.Background(), c.intent, c.name)
		if err != nil {
			return "", 0, fmt.Errorf("%s %q: %v", c.name, c.intent, err)
		}
		led, err := json.Marshal(res.RouteInsert.Ambiguity)
		if err != nil {
			return "", 0, err
		}
		ins := res.RouteInsert
		return fmt.Sprintf("%v %q %d %s\n%s", ins.Overlaps, ins.Questions, ins.Position, led, res.Config.Print()), len(ins.Questions), nil
	}
	serial := make([]string, len(cases))
	questions := 0
	for i := range cases {
		out, n, err := run(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = out
		questions += n
	}
	if questions < len(cases)/2 {
		t.Fatalf("%d updates asked %d questions: inputs too narrow to mean anything", len(cases), questions)
	}
	t.Logf("%d updates, %d questions", len(cases), questions)
	cache := symbolic.NewSpaceCache()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range cases {
				i := (k + g*len(cases)/4) % len(cases)
				out, _, err := run(i, cache)
				if err == nil && out != serial[i] {
					err = fmt.Errorf("%s %q: concurrent outcome\n%s\nserial\n%s", cases[i].name, cases[i].intent, out, serial[i])
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// garbageClassifier answers every request with text that is not a valid
// intent kind.
type garbageClassifier struct{}

func (garbageClassifier) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	return llm.Response{Content: "  poetry \n"}, nil
}

// TestClassifierGarbage pins the error path when the classifier returns
// neither "acl" nor "route-map": the message must quote the (trimmed)
// classifier output.
func TestClassifierGarbage(t *testing.T) {
	s := &Session{
		Client: garbageClassifier{},
		Config: ios.MustParse(paperISPOut),
	}
	_, err := s.Submit(context.Background(), "do something", "ISP_OUT")
	if err == nil {
		t.Fatal("expected an error for unclassifiable intent")
	}
	if !strings.Contains(err.Error(), `"poetry"`) {
		t.Errorf("error %q does not quote the trimmed classifier output", err)
	}
}

// TestCachedSessionMatchesUncached: the same walkthrough with and without a
// SpaceCache must yield semantically identical configurations and identical
// question counts. The update verifies and disambiguates in one space: the
// warm run builds it (one miss) and the cached run finds it (one hit).
func TestCachedSessionMatchesUncached(t *testing.T) {
	run := func(cache *symbolic.SpaceCache) *UpdateResult {
		t.Helper()
		s := newPaperSession(t, llm.NewSimLLM())
		s.SpaceCache = cache
		res, err := s.Submit(context.Background(), paperPrompt, "ISP_OUT")
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(nil)
	cache := symbolic.NewSpaceCache()
	warm := run(cache) // populates
	if st := cache.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Errorf("warm run: %+v, want 0 hits and 1 miss", st)
	}
	cached := run(cache) // hits
	if st := cache.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("cached run: %+v, want 1 hit and no further miss", st)
	}
	for _, res := range []*UpdateResult{warm, cached} {
		if res.RouteInsert.Position != plain.RouteInsert.Position {
			t.Errorf("position %d (cached) vs %d (plain)", res.RouteInsert.Position, plain.RouteInsert.Position)
		}
		if len(res.RouteInsert.Questions) != len(plain.RouteInsert.Questions) {
			t.Errorf("questions %d (cached) vs %d (plain)", len(res.RouteInsert.Questions), len(plain.RouteInsert.Questions))
		}
		mustEquivalentMaps(t, res.Config, plain.Config, "ISP_OUT")
	}
}
