package symbolic

import "github.com/clarifynet/clarify/bdd"

// FoldFirstMatch is the first-match semantics M(r) = argmin{i | matches(r,
// S_i)} over n rules whose match sets pred returns, restricted to domain. It
// returns n+1 regions: region i is domain ∧ pred(i) ∧ ¬pred(0..i−1), and
// region n is the part of domain no rule matches (the implicit deny). Once
// domain is used up, later rules are not encoded and their regions are False.
//
// Every rule list folds through it: route maps and ACLs, and the prefix,
// community and as-path lists inside match clauses and list disambiguation.
func FoldFirstMatch(p *bdd.Pool, domain bdd.Node, n int, pred func(i int) bdd.Node) []bdd.Node {
	out := make([]bdd.Node, n+1) // zero value is bdd.False
	rest := domain
	for i := 0; i < n && rest != bdd.False; i++ {
		m := pred(i)
		out[i] = p.And(rest, m)
		rest = p.Diff(rest, m)
	}
	out[n] = rest
	return out
}

// permitted ORs the first-match regions of the rules that permit; regions is
// FoldFirstMatch's result, whose implicit-deny region is never included.
func permitted(p *bdd.Pool, regions []bdd.Node, permit func(i int) bool) bdd.Node {
	out := bdd.False
	for i, r := range regions[:len(regions)-1] {
		if permit(i) {
			out = p.Or(out, r)
		}
	}
	return out
}
