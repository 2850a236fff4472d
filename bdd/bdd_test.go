package bdd

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTerminals(t *testing.T) {
	p := NewPool(4)
	if p.And(True, False) != False {
		t.Fatal("True ∧ False != False")
	}
	if p.Or(True, False) != True {
		t.Fatal("True ∨ False != True")
	}
	if p.Not(True) != False || p.Not(False) != True {
		t.Fatal("negation of terminals wrong")
	}
	if p.Size() < 2 {
		t.Fatal("pool missing terminals")
	}
}

func TestVarBasics(t *testing.T) {
	p := NewPool(3)
	x, y := p.Var(0), p.Var(1)
	if p.And(x, p.Not(x)) != False {
		t.Error("x ∧ ¬x != False")
	}
	if p.Or(x, p.Not(x)) != True {
		t.Error("x ∨ ¬x != True")
	}
	if p.And(x, y) == p.Or(x, y) {
		t.Error("x∧y == x∨y")
	}
	if p.NVar(0) != p.Not(x) {
		t.Error("NVar(0) != Not(Var(0))")
	}
}

func TestHashConsing(t *testing.T) {
	p := NewPool(4)
	a := p.And(p.Var(0), p.Var(1))
	b := p.And(p.Var(1), p.Var(0))
	if a != b {
		t.Error("identical functions got distinct nodes")
	}
	c := p.Not(p.Not(a))
	if c != a {
		t.Error("double negation not canonical")
	}
}

func TestITEIdentities(t *testing.T) {
	p := NewPool(5)
	f := p.Xor(p.Var(0), p.Var(2))
	g := p.And(p.Var(1), p.Var(3))
	if p.ITE(True, f, g) != f || p.ITE(False, f, g) != g {
		t.Error("ITE terminal cases wrong")
	}
	if p.ITE(f, g, g) != g {
		t.Error("ITE(f,g,g) != g")
	}
	if p.ITE(f, True, False) != f {
		t.Error("ITE(f,T,F) != f")
	}
}

// evalTruth compares a BDD against a reference boolean function over all
// assignments of numVars variables.
func evalTruth(t *testing.T, p *Pool, f Node, numVars int, ref func(v []bool) bool) {
	t.Helper()
	v := make([]bool, numVars)
	for m := 0; m < 1<<uint(numVars); m++ {
		for i := 0; i < numVars; i++ {
			v[i] = m>>uint(i)&1 == 1
		}
		if got, want := p.Eval(f, v), ref(v); got != want {
			t.Fatalf("assignment %v: got %v want %v", v, got, want)
		}
	}
}

// TestITETopVariableShortcut: ITE on a variable (or its negation) above both
// branches returns the one node the general path would build, counts the
// call, and adds no cache entry; a branch at the variable's own level takes
// the general path.
func TestITETopVariableShortcut(t *testing.T) {
	const n = 10
	p := NewPool(n)
	rng := rand.New(rand.NewSource(4))
	// below draws a function over the variables strictly below level l.
	below := func(l int) Node {
		f := Node(rng.Intn(2))
		for i := 0; i < 4 && l+1 < n; i++ {
			v := p.Var(l + 1 + rng.Intn(n-l-1))
			switch rng.Intn(3) {
			case 0:
				f = p.And(f, v)
			case 1:
				f = p.Or(f, v)
			default:
				f = p.Xor(f, v)
			}
		}
		return f
	}
	ite := func(f, g, h Node, l int, pos bool) Node {
		t.Helper()
		r := p.ITE(f, g, h)
		evalTruth(t, p, r, n, func(v []bool) bool {
			if v[l] == pos {
				return p.Eval(g, v)
			}
			return p.Eval(h, v)
		})
		return r
	}
	for l := 0; l < n; l++ {
		for trial := 0; trial < 20; trial++ {
			g, h := below(l), below(l)
			for _, tc := range []struct {
				f, want Node
				pos     bool
			}{
				{p.Var(l), p.mk(int32(l), h, g), true},
				{p.NVar(l), p.mk(int32(l), g, h), false},
			} {
				cached, calls := p.iteCount, p.stats.ITECalls
				if r := ite(tc.f, g, h, l, tc.pos); r != tc.want {
					t.Fatalf("level %d: ITE = %d, want mk = %d", l, r, tc.want)
				}
				if p.iteCount != cached || p.stats.ITECalls != calls+1 {
					t.Fatalf("level %d: cache %d→%d entries, %d→%d calls; want unchanged, +1",
						l, cached, p.iteCount, calls, p.stats.ITECalls)
				}
			}
		}
	}
	for l := 0; l+1 < n; l++ {
		g, h := p.Xor(p.Var(l), below(l)), below(l) // g's top level is l
		cached := p.iteCount
		ite(p.Var(l), g, h, l, true)
		if p.iteCount == cached {
			t.Fatalf("level %d: branch at the variable's level must take the cached general path", l)
		}
	}
}

func TestTruthTables(t *testing.T) {
	p := NewPool(4)
	a, b, c := p.Var(0), p.Var(1), p.Var(2)
	f := p.Or(p.And(a, b), p.Xor(b, c))
	evalTruth(t, p, f, 4, func(v []bool) bool {
		return (v[0] && v[1]) || (v[1] != v[2])
	})
	g := p.Implies(a, p.Iff(b, c))
	evalTruth(t, p, g, 4, func(v []bool) bool {
		return !v[0] || (v[1] == v[2])
	})
	d := p.Diff(f, g)
	evalTruth(t, p, d, 4, func(v []bool) bool {
		fv := (v[0] && v[1]) || (v[1] != v[2])
		gv := !v[0] || (v[1] == v[2])
		return fv && !gv
	})
}

func TestAndNOrN(t *testing.T) {
	p := NewPool(4)
	vs := []Node{p.Var(0), p.Var(1), p.Var(2), p.Var(3)}
	all := p.AndN(vs...)
	any := p.OrN(vs...)
	evalTruth(t, p, all, 4, func(v []bool) bool { return v[0] && v[1] && v[2] && v[3] })
	evalTruth(t, p, any, 4, func(v []bool) bool { return v[0] || v[1] || v[2] || v[3] })
	if p.AndN() != True || p.OrN() != False {
		t.Error("empty fold identities wrong")
	}
}

func TestExists(t *testing.T) {
	p := NewPool(3)
	a, b := p.Var(0), p.Var(1)
	f := p.And(a, b)
	ex := p.Exists(f, []int{0})
	// ∃a. a∧b == b
	if ex != b {
		t.Errorf("∃a.(a∧b) != b")
	}
	if p.Exists(f, []int{0, 1}) != True {
		t.Errorf("∃ab.(a∧b) != True")
	}
	if p.Exists(False, []int{0, 1, 2}) != False {
		t.Errorf("∃.False != False")
	}
}

func TestRestrict(t *testing.T) {
	p := NewPool(3)
	a, b := p.Var(0), p.Var(1)
	f := p.Xor(a, b)
	if p.Restrict(f, Cube{1, -1, -1}) != p.Not(b) {
		t.Error("f[a:=1] != ¬b")
	}
	if p.Restrict(f, Cube{0, -1, -1}) != b {
		t.Error("f[a:=0] != b")
	}
	if p.Restrict(f, Cube{1, 1, -1}) != False {
		t.Error("f[a:=1,b:=1] != False")
	}
	// A cube shorter than the universe leaves the levels past its end free.
	if p.Restrict(f, Cube{1}) != p.Not(b) {
		t.Error("f[a:=1] via a short cube != ¬b")
	}
}

// cubeWith returns a cube over n levels that assigns only level, to value.
func cubeWith(n, level int, value int8) Cube {
	c := make(Cube, n)
	for i := range c {
		c[i] = -1
	}
	c[level] = value
	return c
}

// zeroCompletion is the total assignment that sets a cube's don't-cares
// false.
func zeroCompletion(c Cube) []bool {
	v := make([]bool, len(c))
	for lvl, val := range c {
		v[lvl] = val == 1
	}
	return v
}

func TestAnySat(t *testing.T) {
	p := NewPool(4)
	if _, ok := p.AnySat(False); ok {
		t.Fatal("AnySat(False) should fail")
	}
	f := p.And(p.Var(1), p.Not(p.Var(3)))
	asg, ok := p.AnySat(f)
	if !ok {
		t.Fatal("AnySat failed on satisfiable function")
	}
	if len(asg) != 4 {
		t.Fatalf("AnySat cube covers %d levels, want the universe's 4", len(asg))
	}
	if !p.Eval(f, zeroCompletion(asg)) {
		t.Fatalf("AnySat returned non-model %v", asg)
	}
}

func TestSatCount(t *testing.T) {
	p := NewPool(4)
	cases := []struct {
		f    Node
		want int64
	}{
		{True, 16},
		{False, 0},
		{p.Var(0), 8},
		{p.And(p.Var(0), p.Var(3)), 4},
		{p.Or(p.Var(1), p.Var(2)), 12},
		{p.Xor(p.Var(0), p.Var(1)), 8},
	}
	for i, c := range cases {
		if got := p.SatCount(c.f); got.Cmp(big.NewInt(c.want)) != 0 {
			t.Errorf("case %d: SatCount = %v, want %d", i, got, c.want)
		}
	}
}

func TestSatCountMatchesEnumeration(t *testing.T) {
	const n = 5
	rng := rand.New(rand.NewSource(7))
	p := NewPool(n)
	for trial := 0; trial < 50; trial++ {
		f := randomBDD(rng, p, n, 4)
		var count int64
		v := make([]bool, n)
		for m := 0; m < 1<<n; m++ {
			for i := 0; i < n; i++ {
				v[i] = m>>uint(i)&1 == 1
			}
			if p.Eval(f, v) {
				count++
			}
		}
		if got := p.SatCount(f); got.Cmp(big.NewInt(count)) != 0 {
			t.Fatalf("trial %d: SatCount=%v enumeration=%d", trial, got, count)
		}
	}
}

func TestAllSat(t *testing.T) {
	p := NewPool(3)
	f := p.Or(p.And(p.Var(0), p.Var(1)), p.Not(p.Var(2)))
	total := new(big.Int)
	p.AllSat(f, func(cube Cube) bool {
		free := 0
		for _, val := range cube {
			if val < 0 {
				free++
			}
		}
		total.Add(total, new(big.Int).Lsh(big.NewInt(1), uint(free)))
		// Every cube must be a model.
		if !p.Eval(f, zeroCompletion(cube)) {
			t.Errorf("cube %v not a model", cube)
		}
		return true
	})
	if total.Cmp(p.SatCount(f)) != 0 {
		t.Errorf("AllSat covered %v assignments, SatCount says %v", total, p.SatCount(f))
	}
}

func TestAllSatEarlyStop(t *testing.T) {
	p := NewPool(3)
	f := p.Or(p.Var(0), p.Var(1))
	calls := 0
	p.AllSat(f, func(Cube) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Errorf("early stop ignored: %d calls", calls)
	}
}

func TestSupport(t *testing.T) {
	p := NewPool(6)
	f := p.And(p.Var(1), p.Or(p.Var(4), p.Not(p.Var(2))))
	got := p.Support(f)
	want := []int{1, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("Support = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Support = %v, want %v", got, want)
		}
	}
}

func TestAddVars(t *testing.T) {
	p := NewPool(2)
	f := p.And(p.Var(0), p.Var(1))
	first := p.AddVars(2)
	if first != 2 || p.NumVars() != 4 {
		t.Fatalf("AddVars: first=%d numVars=%d", first, p.NumVars())
	}
	g := p.And(f, p.Var(3))
	evalTruth(t, p, g, 4, func(v []bool) bool { return v[0] && v[1] && v[3] })
}

// randomBDD builds a random function of bounded depth.
func randomBDD(rng *rand.Rand, p *Pool, numVars, depth int) Node {
	if depth == 0 || rng.Intn(4) == 0 {
		switch rng.Intn(4) {
		case 0:
			return True
		case 1:
			return False
		default:
			return p.Var(rng.Intn(numVars))
		}
	}
	a := randomBDD(rng, p, numVars, depth-1)
	b := randomBDD(rng, p, numVars, depth-1)
	switch rng.Intn(4) {
	case 0:
		return p.And(a, b)
	case 1:
		return p.Or(a, b)
	case 2:
		return p.Xor(a, b)
	default:
		return p.Not(a)
	}
}

// TestQuickDeMorgan checks ¬(a∧b) == ¬a ∨ ¬b on randomly built functions.
func TestQuickDeMorgan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	p := NewPool(6)
	check := func() bool {
		a := randomBDD(rng, p, 6, 5)
		b := randomBDD(rng, p, 6, 5)
		return p.Not(p.And(a, b)) == p.Or(p.Not(a), p.Not(b))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickCanonicity: two structurally different constructions of the same
// function must yield the same node.
func TestQuickCanonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	p := NewPool(5)
	check := func() bool {
		a := randomBDD(rng, p, 5, 4)
		b := randomBDD(rng, p, 5, 4)
		// a xor b == (a∧¬b) ∨ (¬a∧b)
		lhs := p.Xor(a, b)
		rhs := p.Or(p.And(a, p.Not(b)), p.And(p.Not(a), b))
		return lhs == rhs
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickEvalConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 7
	p := NewPool(n)
	check := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		a := randomBDD(local, p, n, 5)
		b := randomBDD(local, p, n, 5)
		and, or, xor := p.And(a, b), p.Or(a, b), p.Xor(a, b)
		v := make([]bool, n)
		for i := range v {
			v[i] = rng.Intn(2) == 1
		}
		ea, eb := p.Eval(a, v), p.Eval(b, v)
		return p.Eval(and, v) == (ea && eb) &&
			p.Eval(or, v) == (ea || eb) &&
			p.Eval(xor, v) == (ea != eb)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
