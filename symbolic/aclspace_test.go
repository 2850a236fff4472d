package symbolic

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/clarifynet/clarify/bdd"
	"github.com/clarifynet/clarify/internal/testgen"
	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/packet"
	"github.com/clarifynet/clarify/policy"
)

const testACL = `ip access-list extended EDGE
 permit tcp host 1.1.1.1 host 2.2.2.2 eq 80
 deny udp 10.0.0.0 0.0.0.255 any
 permit tcp any any established
 deny ip any any
`

func TestACEPredWitness(t *testing.T) {
	cfg := ios.MustParse(testACL)
	acl := cfg.ACLs["EDGE"]
	s := NewACLSpace()
	for i, e := range acl.Entries {
		pred := s.ACEPred(e)
		pk, ok := s.Witness(pred)
		if !ok {
			t.Fatalf("entry %d unsatisfiable", i)
		}
		if !policy.ACEMatches(e, pk) {
			t.Errorf("entry %d witness %s does not match concretely", i, pk)
		}
	}
}

func TestACLFirstMatchPartition(t *testing.T) {
	cfg := ios.MustParse(testACL)
	s := NewACLSpace()
	regions := s.FirstMatch(cfg.ACLs["EDGE"])
	p := s.Pool
	all := bdd.False
	for i := range regions {
		for j := i + 1; j < len(regions); j++ {
			if p.And(regions[i], regions[j]) != bdd.False {
				t.Errorf("regions %d,%d overlap", i, j)
			}
		}
		all = p.Or(all, regions[i])
	}
	if all != bdd.True {
		t.Error("regions do not cover header space")
	}
	// The catch-all deny makes the implicit-deny region empty.
	if regions[len(regions)-1] != bdd.False {
		t.Error("implicit deny should be unreachable behind deny ip any any")
	}
}

func TestPermitSetMatchesEvaluator(t *testing.T) {
	cfg := ios.MustParse(testACL)
	acl := cfg.ACLs["EDGE"]
	s := NewACLSpace()
	permit := s.PermitSet(acl)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		pk := testgen.Packet(rng)
		want := policy.EvalACL(acl, pk).Permit
		if got := s.Pool.Eval(permit, s.EncodePacket(pk)); got != want {
			t.Fatalf("packet %s: symbolic=%v concrete=%v", pk, got, want)
		}
	}
}

// TestQuickACLAgreement: random ACLs, random packets — the symbolic fold
// agrees with the concrete evaluator (checkACLFirstMatch).
func TestQuickACLAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		checkACLFirstMatch(t, rng, 1+trial%12)
	}
}

// FuzzACLFirstMatch runs checkACLFirstMatch on fuzzed seeds and sizes:
//
//	go test -run '^$' -fuzz '^FuzzACLFirstMatch$' -fuzztime 15s ./symbolic/
func FuzzACLFirstMatch(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed*5))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		checkACLFirstMatch(t, rand.New(rand.NewSource(seed)), int(n%12)+1)
	})
}

// checkACLFirstMatch draws an ACL of n entries and checks the first-match
// fold against policy.EvalACL: 64 random packets land in the region of
// their verdict's index and in PermitSet exactly when permitted, every
// non-empty region's witness evaluates to that region, and FirstMatchWithin
// a random entry's packets is FirstMatch ∧ that entry, node for node. The
// match boxes FirstMatchWithin skips by are exact: the random entry's box
// misses an entry's exactly when the two ACEPreds share no packet. A space
// recycled from one that served another random ACL gives a fresh space's
// nodes and witnesses.
func checkACLFirstMatch(t *testing.T, rng *rand.Rand, n int) {
	t.Helper()
	cfg := testgen.ACL(rng, "A", n)
	acl := cfg.ACLs["A"]
	s := NewACLSpace()
	regions := s.FirstMatch(acl)
	permit := s.PermitSet(acl)
	region := func(pk packet.Packet) (int, bool) {
		v := policy.EvalACL(acl, pk)
		if v.Index == policy.ImplicitDeny {
			return n, v.Permit
		}
		return v.Index, v.Permit
	}
	for i := 0; i < 64; i++ {
		pk := testgen.Packet(rng)
		want, permitted := region(pk)
		vec := s.EncodePacket(pk)
		for ri, reg := range regions {
			if got := s.Pool.Eval(reg, vec); got != (ri == want) {
				t.Fatalf("packet %s: region %d=%v, want region %d\nACL:\n%s", pk, ri, got, want, cfg.Print())
			}
		}
		if got := s.Pool.Eval(permit, vec); got != permitted {
			t.Fatalf("packet %s: PermitSet=%v, EvalACL permit=%v\nACL:\n%s", pk, got, permitted, cfg.Print())
		}
	}
	for ri, reg := range regions {
		pk, ok := s.Witness(reg)
		if !ok {
			continue // shadowed entry
		}
		if got, _ := region(pk); got != ri {
			t.Fatalf("witness %s of region %d evaluates to region %d\nACL:\n%s", pk, ri, got, cfg.Print())
		}
	}
	e := testgen.RandomACE(rng, 10)
	domain := s.ACEPred(e)
	for i, got := range s.FirstMatchWithin(acl, e) {
		if want := s.Pool.And(regions[i], domain); got != want {
			t.Fatalf("FirstMatchWithin(%s)[%d] = %d, want FirstMatch ∧ entry = %d\nACL:\n%s", e, i, got, want, cfg.Print())
		}
	}
	for _, other := range acl.Entries {
		disjoint := s.Pool.And(domain, s.ACEPred(other)) == bdd.False
		if got := acesDisjoint(e, other); got != disjoint {
			t.Fatalf("acesDisjoint(%s, %s) = %v, but the entries share no packet: %v", e, other, got, disjoint)
		}
	}
	otherCfg := testgen.ACL(rng, "B", 1+rng.Intn(12))
	other := otherCfg.ACLs["B"]
	served := newACLSpaceIn(bdd.NewPool(0))
	served.FirstMatchWithin(other, e)
	served.PermitSet(other)
	served.Pool.Reset() // as Release leaves the pool for NewACLSpace
	wantNodes, wantWitnesses := aclSpaceWork(newACLSpaceIn(bdd.NewPool(0)), acl, e)
	gotNodes, gotWitnesses := aclSpaceWork(newACLSpaceIn(served.Pool), acl, e)
	if !slices.Equal(gotNodes, wantNodes) || !slices.Equal(gotWitnesses, wantWitnesses) {
		t.Fatalf("a space that served\n%sgave nodes %v witnesses %v, a fresh space %v %v\nACL:\n%s",
			otherCfg.Print(), gotNodes, gotWitnesses, wantNodes, wantWitnesses, cfg.Print())
	}
}

// aclSpaceWork encodes every entry of acl in s, folds FirstMatch,
// FirstMatchWithin e and PermitSet, and returns those nodes and the
// witnesses of the regions.
func aclSpaceWork(s *ACLSpace, acl *ios.ACL, e *ios.ACE) ([]bdd.Node, []packet.Packet) {
	var nodes []bdd.Node
	for _, x := range acl.Entries {
		nodes = append(nodes, s.ACEPred(x))
	}
	regions := append(s.FirstMatch(acl), s.FirstMatchWithin(acl, e)...)
	nodes = append(append(nodes, regions...), s.PermitSet(acl))
	var witnesses []packet.Packet
	for _, r := range regions {
		if pk, ok := s.Witness(r); ok {
			witnesses = append(witnesses, pk)
		}
	}
	return nodes, witnesses
}

// TestACLSpaceReleaseRecycles: a released space's pool comes back, reset, to
// a later NewACLSpace. The free list may drop an entry (the race detector
// drops a quarter of them on purpose), so it need only come back once in a
// hundred releases.
func TestACLSpaceReleaseRecycles(t *testing.T) {
	reused := 0
	for i := 0; i < 100; i++ {
		s := smallACLSpace(t)
		p := s.Pool
		s.Release()
		if s.Pool != nil {
			t.Fatal("a released space still holds its pool")
		}
		next := NewACLSpace()
		if next.Pool == p {
			reused++
			if fresh := newACLSpaceIn(bdd.NewPool(0)); p.Size() != fresh.Pool.Size() || p.Counters() != fresh.Pool.Counters() {
				t.Fatalf("a recycled space starts at %d nodes with counters %+v, a fresh one at %d with %+v",
					p.Size(), p.Counters(), fresh.Pool.Size(), fresh.Pool.Counters())
			}
		}
	}
	if reused == 0 {
		t.Fatal("no released pool came back in 100 releases")
	}
}

// TestACLSpaceReleaseTwice: a second Release does nothing, so the pool goes
// on the free list once and two later spaces get distinct pools.
func TestACLSpaceReleaseTwice(t *testing.T) {
	s := smallACLSpace(t)
	s.Release()
	s.Release()
	if a, b := NewACLSpace(), NewACLSpace(); a.Pool == b.Pool {
		t.Fatal("two spaces share one pool after a double Release")
	}
}

// smallACLSpace returns a space that has encoded one entry and stays under
// maxRecycledNodes, so Release recycles it.
func smallACLSpace(t *testing.T) *ACLSpace {
	t.Helper()
	s := NewACLSpace()
	s.ACEPred(ios.MustParse(testACL).ACLs["EDGE"].Entries[0])
	if s.Pool.Size() > maxRecycledNodes || s.Pool.Counters().Growths != 0 {
		t.Fatalf("one entry took the pool to %d nodes and %d growths; Release would drop it", s.Pool.Size(), s.Pool.Counters().Growths)
	}
	return s
}

// TestACLSpaceReleaseDropsLargePools: a pool over maxRecycledNodes, or one
// whose ITE cache doubled while it stayed under the bound, goes to the
// collector, not back on the free list.
func TestACLSpaceReleaseDropsLargePools(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func(s *ACLSpace)
		grown bool
	}{
		{"over the node bound", func(s *ACLSpace) {
			for _, e := range ios.MustParse("ip access-list extended A\n permit tcp host 1.1.1.1 host 2.2.2.2 eq 80\n deny udp host 3.3.3.3 host 4.4.4.4 eq 53\n").ACLs["A"].Entries {
				s.ACEPred(e)
			}
		}, false},
		{"grown ITE cache", func(s *ACLSpace) {
			// Chains v0 ∧ … ∧ vi, then their pairwise conjunctions, which
			// are chains already: few nodes, many cache entries.
			p := s.Pool
			chains := make([]bdd.Node, 24)
			for i := range chains {
				chains[i] = p.Var(i)
				for k := i - 1; k >= 0; k-- {
					chains[i] = p.And(p.Var(k), chains[i])
				}
			}
			for i := range chains {
				for j := i + 1; j < len(chains); j++ {
					p.And(chains[i], chains[j])
				}
			}
		}, true},
	} {
		s := NewACLSpace()
		c.build(s)
		p := s.Pool
		if over, grown := p.Size() > maxRecycledNodes, p.Counters().Growths > 0; over == c.grown || grown != c.grown {
			t.Fatalf("%s: the pool holds %d nodes (bound %d) after %d growths", c.name, p.Size(), maxRecycledNodes, p.Counters().Growths)
		}
		s.Release()
		for i := 0; i < 64; i++ { // more than earlier tests leave on the free list
			if NewACLSpace().Pool == p {
				t.Fatalf("%s: the pool came back from the free list", c.name)
			}
		}
	}
}

// TestACLSpaceReleaseConcurrent: goroutines acquiring, using and releasing
// spaces through the free list each get a fresh space's nodes and witnesses
// (run under -race). ACLs of one or two entries keep most pools under
// maxRecycledNodes, so most spaces are recycled.
func TestACLSpaceReleaseConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	type job struct {
		acl       *ios.ACL
		e         *ios.ACE
		nodes     []bdd.Node
		witnesses []packet.Packet
	}
	jobs := make([]job, 24)
	for i := range jobs {
		j := &jobs[i]
		j.acl = testgen.ACL(rng, "A", 1+rng.Intn(2)).ACLs["A"]
		j.e = testgen.RandomACE(rng, 10)
		j.nodes, j.witnesses = aclSpaceWork(newACLSpaceIn(bdd.NewPool(0)), j.acl, j.e)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 10; round++ {
				for i := g % 2; i < len(jobs); i += 2 { // two goroutines per job
					j := &jobs[i]
					s := NewACLSpace()
					nodes, witnesses := aclSpaceWork(s, j.acl, j.e)
					s.Release()
					if !slices.Equal(nodes, j.nodes) || !slices.Equal(witnesses, j.witnesses) {
						errs <- fmt.Sprintf("job %d round %d: nodes %v witnesses %v, serial %v %v", i, round, nodes, witnesses, j.nodes, j.witnesses)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}

func TestACLWitnessRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		cfg := testgen.ACL(rng, "A", 5)
		acl := cfg.ACLs["A"]
		s := NewACLSpace()
		for i, reg := range s.FirstMatch(acl) {
			pk, ok := s.Witness(reg)
			if !ok {
				continue // region genuinely empty (shadowed entry)
			}
			v := policy.EvalACL(acl, pk)
			want := i
			if i == len(acl.Entries) {
				want = policy.ImplicitDeny
			}
			if v.Index != want {
				t.Fatalf("trial %d: witness %s of region %d evaluates to %d\nACL:\n%s",
					trial, pk, i, v.Index, cfg.Print())
			}
		}
	}
}

func TestPortEdgeCases(t *testing.T) {
	s := NewACLSpace()
	// lt 0 and gt 65535 are unsatisfiable.
	lt0 := &ios.ACE{Permit: true, Protocol: ios.ProtoSpec{Value: 6},
		Src: ios.AddrSpec{Any: true}, Dst: ios.AddrSpec{Any: true},
		SrcPort: ios.PortSpec{Op: ios.PortLt, Lo: 0}}
	if s.ACEPred(lt0) != bdd.False {
		t.Error("lt 0 should be unsatisfiable")
	}
	gtMax := &ios.ACE{Permit: true, Protocol: ios.ProtoSpec{Value: 6},
		Src: ios.AddrSpec{Any: true}, Dst: ios.AddrSpec{Any: true},
		DstPort: ios.PortSpec{Op: ios.PortGt, Lo: 0xFFFF}}
	if s.ACEPred(gtMax) != bdd.False {
		t.Error("gt 65535 should be unsatisfiable")
	}
}

func TestEstablishedWitness(t *testing.T) {
	cfg := ios.MustParse("ip access-list extended A\n permit tcp any any established\n")
	s := NewACLSpace()
	pk, ok := s.Witness(s.ACEPred(cfg.ACLs["A"].Entries[0]))
	if !ok || !pk.Established || pk.Protocol != packet.ProtoTCP {
		t.Errorf("witness = %s, ok=%v", pk, ok)
	}
}

// TestACEPredEncodingWork bounds the BDD work of encoding one entry on a
// fresh space. Built bottom-up, an entry costs a few ITE calls and nodes per
// constrained bit; an address conjoined MSB first costs O(32²) calls.
func TestACEPredEncodingWork(t *testing.T) {
	for _, tc := range []struct {
		ace              string
		maxITE, maxNodes int64
	}{
		{"permit tcp host 1.1.1.1 host 2.2.2.2 eq 80", 400, 300},
		{"deny udp 10.0.0.0 0.0.0.255 192.168.0.0 0.0.255.255 range 1000 2000", 300, 220},
	} {
		e := ios.MustParse("ip access-list extended A\n " + tc.ace + "\n").ACLs["A"].Entries[0]
		s := NewACLSpace()
		before, size := s.Pool.Counters(), s.Pool.Size()
		s.ACEPred(e)
		d := s.Pool.Counters().Sub(before)
		nodes := int64(s.Pool.Size() - size)
		if d.ITECalls > tc.maxITE || nodes > tc.maxNodes || d.Growths != 0 {
			t.Errorf("%s: %d ITE calls, %d nodes, %d growths; want ≤ %d, ≤ %d, 0",
				tc.ace, d.ITECalls, nodes, d.Growths, tc.maxITE, tc.maxNodes)
		}
	}
}
