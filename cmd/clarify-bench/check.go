package main

import (
	"crypto/sha256"
	"fmt"

	"github.com/clarifynet/clarify/analysis"
	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/symbolic"
)

// equivalent reports whether final's route map or ACL u.name behaves exactly
// like the hidden target's: analysis.EquivalentRouteMaps for route maps,
// equality of the canonical permit-set BDDs for ACLs.
func equivalent(u *update, final *ios.Config) (bool, error) {
	if u.acl {
		got, want := final.ACLs[u.name], u.target.ACLs[u.name]
		if got == nil {
			return false, fmt.Errorf("final configuration lacks ACL %s", u.name)
		}
		space := symbolic.NewACLSpace()
		return space.PermitSet(got) == space.PermitSet(want), nil
	}
	got, want := final.RouteMaps[u.name], u.target.RouteMaps[u.name]
	if got == nil {
		return false, fmt.Errorf("final configuration lacks route-map %s", u.name)
	}
	space, err := symbolic.NewRouteSpace(final, u.target)
	if err != nil {
		return false, err
	}
	return analysis.EquivalentRouteMaps(space, final, got, u.target, want)
}

// verdicts memoizes equivalence checks by a digest of the update's inputs and
// the final configuration. Keyed by the text itself, the memo grew by
// megabytes over a run and showed in heap_live_mb, which is meant to measure
// the system.
type verdicts map[[sha256.Size]byte]bool

// verify checks one finished session, memoizing verdicts for workloads whose
// inputs repeat.
func verify(memo verdicts, u *update, final *ios.Config) (bool, error) {
	if u.key == "" {
		ok, err := equivalent(u, final)
		return describe(u, ok, err)
	}
	key := sha256.Sum256([]byte(u.key + "\x00" + final.Print()))
	if ok, seen := memo[key]; seen {
		return describe(u, ok, nil)
	}
	ok, err := equivalent(u, final)
	if err == nil {
		memo[key] = ok
	}
	return describe(u, ok, err)
}

// describe names the update in a mismatch, so a failing run says which input
// diverged.
func describe(u *update, ok bool, err error) (bool, error) {
	if ok && err == nil {
		return true, nil
	}
	if err == nil {
		err = fmt.Errorf("not equivalent")
	}
	return false, fmt.Errorf("%s %q (target position %d): %w", u.name, u.intent, u.pos, err)
}
