package disambig

import (
	"encoding/json"
	"math/rand"
	"slices"
	"testing"

	"github.com/clarifynet/clarify/internal/testgen"
	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/obs"
	"github.com/clarifynet/clarify/policy"
	"github.com/clarifynet/clarify/symbolic"
	"github.com/clarifynet/clarify/workload"
)

const baseACL = `ip access-list extended EDGE
 deny tcp any any eq 22
 permit udp 10.0.0.0 0.0.0.255 any
 permit tcp any any established
 deny ip any any
`

const aclSnippet = `ip access-list extended NEW_ENTRY
 permit tcp 10.0.0.0 0.0.0.255 any eq 22
`

// targetACL builds EDGE with the new entry inserted at pos.
func targetACL(t *testing.T, pos int) *ios.Config {
	t.Helper()
	cfg := ios.MustParse(baseACL)
	snip := ios.MustParse(aclSnippet)
	cfg.ACLs["EDGE"].InsertEntry(pos, snip.ACLs["NEW_ENTRY"].Entries[0].Clone())
	return cfg
}

func aclEquivalent(t *testing.T, a, b *ios.Config, name string) {
	t.Helper()
	s := symbolic.NewACLSpace()
	pa := s.PermitSet(a.ACLs[name])
	pb := s.PermitSet(b.ACLs[name])
	if pa != pb {
		t.Fatalf("ACLs differ:\n--- got ---\n%s\n--- want ---\n%s", a.Print(), b.Print())
	}
}

func TestACLInsertTop(t *testing.T) {
	orig := ios.MustParse(baseACL)
	snippet := ios.MustParse(aclSnippet)
	target := targetACL(t, 0) // permit 10.0.0.x:22 despite the ssh deny
	user := NewSimUserACL(target, "EDGE")
	res, err := InsertACLEntry(orig, "EDGE", snippet, "NEW_ENTRY", user)
	if err != nil {
		t.Fatal(err)
	}
	// The only distinguishing overlap is entry 0 (deny tcp any any eq 22):
	// it first-match-captures the new entry's whole space, so the catch-all
	// deny at entry 3 never sees those packets and is rightly not probed.
	if len(res.Overlaps) != 1 || res.Overlaps[0] != 0 {
		t.Errorf("overlaps = %v, want [0]", res.Overlaps)
	}
	if len(res.Questions) != 1 {
		t.Errorf("questions = %d, want 1", len(res.Questions))
	}
	if res.Position != 0 {
		t.Errorf("position = %d, want 0", res.Position)
	}
	aclEquivalent(t, res.Config, target, "EDGE")
	if len(orig.ACLs["EDGE"].Entries) != 4 {
		t.Error("original mutated")
	}
}

func TestACLInsertBetween(t *testing.T) {
	// Target: below the ssh deny but above the catch-all deny (positions
	// 1..3 are all equivalent for this entry).
	orig := ios.MustParse(baseACL)
	snippet := ios.MustParse(aclSnippet)
	target := targetACL(t, 2)
	user := NewSimUserACL(target, "EDGE")
	res, err := InsertACLEntry(orig, "EDGE", snippet, "NEW_ENTRY", user)
	if err != nil {
		t.Fatal(err)
	}
	aclEquivalent(t, res.Config, target, "EDGE")
	if got := len(res.Questions); got > 1 {
		t.Errorf("questions = %d, want ≤ 1 for 2 overlaps... bound is ⌈log2(3)⌉=2", got)
	}
	// Sequence numbers renumbered.
	for i, e := range res.Config.ACLs["EDGE"].Entries {
		if e.Seq != (i+1)*10 {
			t.Errorf("entry %d seq = %d", i, e.Seq)
		}
	}
}

func TestACLInsertBottomTarget(t *testing.T) {
	// A new entry whose packets should keep being handled by existing rules
	// everywhere → bottom placement.
	orig := ios.MustParse(baseACL)
	snippet := ios.MustParse("ip access-list extended NEW_ENTRY\n permit ip any any\n")
	target := ios.MustParse(baseACL)
	target.ACLs["EDGE"].InsertEntry(4, ios.MustParse("ip access-list extended X\n permit ip any any\n").ACLs["X"].Entries[0])
	user := NewSimUserACL(target, "EDGE")
	res, err := InsertACLEntry(orig, "EDGE", snippet, "NEW_ENTRY", user)
	if err != nil {
		t.Fatal(err)
	}
	aclEquivalent(t, res.Config, target, "EDGE")
	if res.Position != 4 {
		t.Errorf("position = %d, want 4", res.Position)
	}
}

func TestACLQuestionShape(t *testing.T) {
	orig := ios.MustParse(baseACL)
	snippet := ios.MustParse(aclSnippet)
	target := targetACL(t, 0)
	var questions []ACLQuestion
	oracle := FuncACLOracle(func(q ACLQuestion) (bool, error) {
		questions = append(questions, q)
		return NewSimUserACL(target, "EDGE").ChooseACL(q)
	})
	if _, err := InsertACLEntry(orig, "EDGE", snippet, "NEW_ENTRY", oracle); err != nil {
		t.Fatal(err)
	}
	for _, q := range questions {
		if q.NewPermit == q.OldPermit {
			t.Error("question options identical")
		}
		// Inputs must match the new entry: tcp from 10.0.0.0/24 port 22.
		if q.Input.Protocol != 6 || q.Input.DstPort != 22 {
			t.Errorf("question input does not match new entry: %s", q.Input)
		}
	}
}

func TestACLInsertErrors(t *testing.T) {
	orig := ios.MustParse(baseACL)
	snippet := ios.MustParse(aclSnippet)
	if _, err := InsertACLEntry(orig, "NOPE", snippet, "NEW_ENTRY", nil); err == nil {
		t.Error("missing ACL should fail")
	}
	if _, err := InsertACLEntry(orig, "EDGE", snippet, "NOPE", nil); err == nil {
		t.Error("missing snippet ACL should fail")
	}
}

// TestQuickACLDisambiguation mirrors the route-map property: random ACLs,
// random entries, every target position → equivalent result.
func TestQuickACLDisambiguation(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 20; trial++ {
		origCfg := testgen.ACL(rng, "A", 5)
		entry := testgen.RandomACE(rng, 10)
		snippet := ios.NewConfig()
		snippet.AddACL("NEW").Entries = append(snippet.AddACL("NEW").Entries, entry)

		targetPos := rng.Intn(len(origCfg.ACLs["A"].Entries) + 1)
		target := origCfg.Clone()
		target.ACLs["A"].InsertEntry(targetPos, entry.Clone())

		user := NewSimUserACL(target, "A")
		res, err := InsertACLEntry(origCfg, "A", snippet, "NEW", user)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, origCfg.Print())
		}
		s := symbolic.NewACLSpace()
		if s.PermitSet(res.Config.ACLs["A"]) != s.PermitSet(target.ACLs["A"]) {
			t.Fatalf("trial %d: result not equivalent to target\ngot:\n%s\nwant:\n%s",
				trial, res.Config.Print(), target.Print())
		}
		// Random probing double-check.
		for i := 0; i < 100; i++ {
			pk := testgen.Packet(rng)
			if policy.EvalACL(res.Config.ACLs["A"], pk).Permit != policy.EvalACL(target.ACLs["A"], pk).Permit {
				t.Fatalf("trial %d: packet %s differs", trial, pk)
			}
		}
	}
}

func TestACLFirstMatchRegionsUsedForOverlaps(t *testing.T) {
	// Entry 1 is fully shadowed by entry 0 on the new entry's space → it
	// must not be probed.
	orig := ios.MustParse(`ip access-list extended A
 deny tcp any any eq 80
 deny tcp 1.0.0.0 0.255.255.255 any eq 80
 permit ip any any
`)
	snippet := ios.MustParse("ip access-list extended N\n permit tcp 1.0.0.0 0.255.255.255 any eq 80\n")
	target := orig.Clone()
	target.ACLs["A"].InsertEntry(0, snippet.ACLs["N"].Entries[0].Clone())
	res, err := InsertACLEntry(orig, "A", snippet, "N", NewSimUserACL(target, "A"))
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range res.Overlaps {
		if o == 1 {
			t.Error("shadowed entry 1 should not be a probe")
		}
	}
	_ = policy.ImplicitDeny
}

// referenceACLProbes collects ACL probes the direct way: every entry's full
// first-match region, conjoined with the new entry afterwards. It is the
// oracle for InsertACLEntry's fold restricted to the new entry's packets.
func referenceACLProbes(acl *ios.ACL, newEntry *ios.ACE) []ACLQuestion {
	space := symbolic.NewACLSpace()
	regions := space.FirstMatch(acl)
	predNew := space.ACEPred(newEntry)
	var probes []ACLQuestion
	for i, e := range acl.Entries {
		if e.Permit == newEntry.Permit {
			continue
		}
		pk, ok := space.Witness(space.Pool.And(regions[i], predNew))
		if !ok || policy.EvalACL(acl, pk).Index != i {
			continue
		}
		probes = append(probes, ACLQuestion{Input: pk, NewPermit: newEntry.Permit, OldPermit: e.Permit, ProbedEntry: i})
	}
	return probes
}

// aclInsertion is one ACL disambiguation input: a base config, the ACL's
// name, and a one-entry snippet ACL named "NEW".
type aclInsertion struct {
	orig    *ios.Config
	name    string
	snippet *ios.Config
}

func newACLInsertion(orig *ios.Config, name string, e *ios.ACE) aclInsertion {
	snippet := ios.NewConfig()
	snippet.AddACL("NEW").Entries = []*ios.ACE{e}
	return aclInsertion{orig: orig, name: name, snippet: snippet}
}

// flippedACLInsertions aims a new entry at every entry of every ACL in the
// corpus: the same match with the opposite action.
func flippedACLInsertions(c *workload.Corpus) []aclInsertion {
	var out []aclInsertion
	for _, cfg := range c.ACLConfigs {
		for name, acl := range cfg.ACLs {
			for _, e := range acl.Entries {
				flipped := e.Clone()
				flipped.Permit = !flipped.Permit
				out = append(out, newACLInsertion(cfg, name, flipped))
			}
		}
	}
	return out
}

// TestACLProbesMatchReference: on random ACLs with random entries, and on
// every entry of the cloud and campus corpora with its action flipped,
// InsertACLEntry finds referenceACLProbes' overlaps, and every question it
// asks is the reference's probe of that entry, witness packet included.
func TestACLProbesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	var inputs []aclInsertion
	for i := 0; i < 2000; i++ {
		inputs = append(inputs, newACLInsertion(testgen.ACL(rng, "A", 1+rng.Intn(12)), "A", testgen.RandomACE(rng, 10)))
	}
	inputs = append(inputs, flippedACLInsertions(workload.Cloud(1, workload.CloudACLCount, 0))...)
	inputs = append(inputs, flippedACLInsertions(workload.Campus(1, 300, 0))...)
	coin := FuncACLOracle(func(ACLQuestion) (bool, error) { return rng.Intn(2) == 0, nil })
	probes, asked := 0, 0
	for _, in := range inputs {
		want := referenceACLProbes(in.orig.ACLs[in.name], in.snippet.ACLs["NEW"].Entries[0])
		res, err := InsertACLEntry(in.orig, in.name, in.snippet, "NEW", coin)
		if err != nil {
			t.Fatal(err)
		}
		var overlaps []int
		byEntry := map[int]ACLQuestion{}
		for _, q := range want {
			overlaps = append(overlaps, q.ProbedEntry)
			byEntry[q.ProbedEntry] = q
		}
		if !slices.Equal(res.Overlaps, overlaps) {
			t.Fatalf("%s ← %s: overlaps %v, reference %v", in.name, in.snippet.Print(), res.Overlaps, overlaps)
		}
		for _, q := range res.Questions {
			if q != byEntry[q.ProbedEntry] {
				t.Fatalf("%s ← %s: asked %+v, reference %+v", in.name, in.snippet.Print(), q, byEntry[q.ProbedEntry])
			}
		}
		probes += len(want)
		asked += len(res.Questions)
	}
	t.Logf("%d insertions, %d probes, %d questions asked", len(inputs), probes, asked)
}

// TestSharedACLSpaceMatchesFresh: an update verifies and disambiguates in
// one packet space. Aiming a flipped copy of every entry of 24 corpus ACLs
// into one space that already holds the verification's predicates and other
// ACLs' first-match folds must give the overlaps, questions (witness packets
// included), position and ledger JSON that a fresh space gives.
func TestSharedACLSpaceMatchesFresh(t *testing.T) {
	var inputs []aclInsertion
	for _, c := range []*workload.Corpus{workload.Cloud(1, workload.CloudACLCount, 0), workload.Campus(1, 300, 0)} {
		inputs = append(inputs, flippedACLInsertions(&workload.Corpus{ACLConfigs: c.ACLConfigs[:12]})...)
	}
	shared := symbolic.NewACLSpace()
	run := func(space *symbolic.ACLSpace, in aclInsertion, threshold int) (*ACLResult, string) {
		t.Helper()
		tr := obs.NewTrace("update")
		oracle := FuncACLOracle(func(q ACLQuestion) (bool, error) { return q.ProbedEntry >= threshold, nil })
		res, err := InsertACLEntryTraced(space, in.orig, in.name, in.snippet, "NEW", oracle, tr.Root)
		if err != nil {
			t.Fatal(err)
		}
		led, err := json.Marshal(res.Ambiguity)
		if err != nil {
			t.Fatal(err)
		}
		return res, string(led)
	}
	questions := 0
	for i, in := range inputs {
		// What verification encodes — the snippet's entry against a spec's
		// entry it misses, both ways — plus an unrelated ACL's fold.
		e := in.snippet.ACLs["NEW"].Entries[0]
		other := inputs[(i+len(inputs)/2)%len(inputs)]
		want := shared.ACEPred(other.snippet.ACLs["NEW"].Entries[0])
		shared.Witness(shared.Pool.Diff(want, shared.ACEPred(e)))
		shared.Witness(shared.Pool.Diff(shared.ACEPred(e), want))
		shared.PermitSet(other.orig.ACLs[other.name])

		threshold := i % (len(in.orig.ACLs[in.name].Entries) + 1)
		fresh, freshLed := run(nil, in, threshold)
		got, gotLed := run(shared, in, threshold)
		if !slices.Equal(got.Overlaps, fresh.Overlaps) || !slices.Equal(got.Questions, fresh.Questions) || got.Position != fresh.Position {
			t.Fatalf("%s ← %s: shared space gave overlaps %v questions %+v position %d, fresh %v %+v %d",
				in.name, e, got.Overlaps, got.Questions, got.Position, fresh.Overlaps, fresh.Questions, fresh.Position)
		}
		if gotLed != freshLed {
			t.Fatalf("%s ← %s: ledger %s, fresh %s", in.name, e, gotLed, freshLed)
		}
		questions += len(got.Questions)
	}
	if len(inputs) < 100 || questions == 0 {
		t.Fatalf("%d insertions asking %d questions: corpus too small to mean anything", len(inputs), questions)
	}
	t.Logf("%d insertions, %d questions, shared pool at %d nodes", len(inputs), questions, shared.Pool.Size())
}

// BenchmarkInsertACLEntry: one op disambiguates a flipped copy of the middle
// entry into each of 20 ACLs spaced across the cloud and campus corpora,
// with an oracle that always keeps the existing behaviour.
func BenchmarkInsertACLEntry(b *testing.B) {
	var inputs []aclInsertion
	for _, c := range []*workload.Corpus{workload.Cloud(1, workload.CloudACLCount, 0), workload.Campus(1, 300, 0)} {
		for i := 0; i < 10; i++ {
			cfg := c.ACLConfigs[i*len(c.ACLConfigs)/10]
			for name, acl := range cfg.ACLs {
				e := acl.Entries[len(acl.Entries)/2].Clone()
				e.Permit = !e.Permit
				inputs = append(inputs, newACLInsertion(cfg, name, e))
			}
		}
	}
	keep := FuncACLOracle(func(ACLQuestion) (bool, error) { return false, nil })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range inputs {
			if _, err := InsertACLEntry(in.orig, in.name, in.snippet, "NEW", keep); err != nil {
				b.Fatal(err)
			}
		}
	}
}
