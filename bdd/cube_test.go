package bdd

import (
	"math/rand"
	"slices"
	"testing"
)

// refAllSat is the map-based AllSat the cube replaced, kept as the
// reference for its traversal order and its assignments.
func refAllSat(p *Pool, f Node, fn func(map[int]bool) bool) {
	cube := make(map[int]bool)
	var rec func(n Node) bool
	rec = func(n Node) bool {
		if n == False {
			return true
		}
		if n == True {
			return fn(cube)
		}
		nd := p.nodes[n]
		cube[int(nd.level)] = false
		if !rec(nd.lo) {
			return false
		}
		cube[int(nd.level)] = true
		if !rec(nd.hi) {
			return false
		}
		delete(cube, int(nd.level))
		return true
	}
	rec(f)
}

// refDecode and refAssigned are Vec.Decode and Vec.Assigned over the map.
func refDecode(v Vec, asg map[int]bool) uint64 {
	var out uint64
	for i := range v.bits {
		out <<= 1
		if asg[v.first+i] {
			out |= 1
		}
	}
	return out
}

func refAssigned(v Vec, asg map[int]bool) bool {
	for i := range v.bits {
		if _, ok := asg[v.first+i]; ok {
			return true
		}
	}
	return false
}

// randomVecPred draws a constraint on one of vecs, or an unstructured
// function over every level.
func randomVecPred(rng *rand.Rand, p *Pool, vecs []Vec) Node {
	v := vecs[rng.Intn(len(vecs))]
	max := uint64(1)<<len(v.bits) - 1
	a, b := uint64(rng.Int63())&max, uint64(rng.Int63())&max
	switch rng.Intn(5) {
	case 0:
		return v.InRange(min(a, b), a|b)
	case 1:
		return v.EqConst(a)
	case 2:
		return p.Not(v.LeqConst(a))
	case 3:
		return v.PrefixEq(a, rng.Intn(len(v.bits)+1))
	default:
		return randomBDD(rng, p, p.NumVars(), 3)
	}
}

// TestQuickCubeMatchesMapReference draws random functions over two or three
// Vecs and checks the cube against the map it replaced: AllSat yields the
// reference's assignments in the reference's order, Decode and Assigned read
// from each cube what the map-based decoder reads from the reference's
// model, AnySat returns the first cube, and every cube's zero completion
// satisfies f.
func TestQuickCubeMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		p := NewPool(0)
		vecs := make([]Vec, 2+rng.Intn(2))
		for i := range vecs {
			w := 1 + rng.Intn(6)
			vecs[i] = NewVec(p, p.AddVars(w), w)
		}
		f := randomVecPred(rng, p, vecs)
		for k := rng.Intn(4); k > 0; k-- {
			if rng.Intn(2) == 0 {
				f = p.And(f, randomVecPred(rng, p, vecs))
			} else {
				f = p.Or(f, randomVecPred(rng, p, vecs))
			}
		}

		var cubes []Cube
		p.AllSat(f, func(c Cube) bool {
			cubes = append(cubes, slices.Clone(c))
			return true
		})
		var models []map[int]bool
		refAllSat(p, f, func(m map[int]bool) bool {
			copied := make(map[int]bool, len(m))
			for l, b := range m {
				copied[l] = b
			}
			models = append(models, copied)
			return true
		})
		if len(cubes) != len(models) {
			t.Fatalf("trial %d: AllSat gave %d cubes, the reference %d", trial, len(cubes), len(models))
		}
		for i, c := range cubes {
			m := models[i]
			if len(c) != p.NumVars() {
				t.Fatalf("trial %d cube %d: %d levels, want %d", trial, i, len(c), p.NumVars())
			}
			for l, val := range c {
				want := int8(-1)
				if b, ok := m[l]; ok {
					want = 0
					if b {
						want = 1
					}
				}
				if val != want {
					t.Fatalf("trial %d cube %d: level %d is %d, reference %d", trial, i, l, val, want)
				}
			}
			for j, v := range vecs {
				if got, want := v.Decode(c), refDecode(v, m); got != want {
					t.Fatalf("trial %d cube %d vec %d: Decode %d, reference %d", trial, i, j, got, want)
				}
				if got, want := v.Assigned(c), refAssigned(v, m); got != want {
					t.Fatalf("trial %d cube %d vec %d: Assigned %v, reference %v", trial, i, j, got, want)
				}
			}
			if !p.Eval(f, zeroCompletion(c)) {
				t.Fatalf("trial %d cube %d: zero completion of %v does not satisfy f", trial, i, c)
			}
		}
		first, ok := p.AnySat(f)
		if ok != (len(cubes) > 0) {
			t.Fatalf("trial %d: AnySat ok=%v with %d cubes", trial, ok, len(cubes))
		}
		if ok && !slices.Equal(first, cubes[0]) {
			t.Fatalf("trial %d: AnySat %v, AllSat's first cube %v", trial, first, cubes[0])
		}
	}
}
