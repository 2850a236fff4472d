package bdd

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// evalVec checks a predicate over every value of a small-width vector.
func evalVecTruth(t *testing.T, p *Pool, f Node, offset, width int, ref func(v uint64) bool) {
	t.Helper()
	vals := make([]bool, p.NumVars())
	for x := uint64(0); x < 1<<uint(width); x++ {
		for i := 0; i < width; i++ {
			vals[offset+i] = x>>uint(width-1-i)&1 == 1
		}
		if got, want := p.Eval(f, vals), ref(x); got != want {
			t.Fatalf("value %d: got %v want %v", x, got, want)
		}
	}
}

func TestVecEqConst(t *testing.T) {
	p := NewPool(6)
	v := NewVec(p, 0, 6)
	for _, c := range []uint64{0, 1, 17, 63} {
		f := v.EqConst(c)
		evalVecTruth(t, p, f, 0, 6, func(x uint64) bool { return x == c })
	}
}

func TestVecLeqGeq(t *testing.T) {
	p := NewPool(6)
	v := NewVec(p, 0, 6)
	for _, c := range []uint64{0, 1, 13, 31, 62, 63} {
		evalVecTruth(t, p, v.LeqConst(c), 0, 6, func(x uint64) bool { return x <= c })
		evalVecTruth(t, p, v.GeqConst(c), 0, 6, func(x uint64) bool { return x >= c })
	}
}

func TestVecInRange(t *testing.T) {
	p := NewPool(6)
	v := NewVec(p, 0, 6)
	cases := [][2]uint64{{0, 63}, {5, 5}, {10, 20}, {62, 63}, {0, 0}}
	for _, c := range cases {
		lo, hi := c[0], c[1]
		evalVecTruth(t, p, v.InRange(lo, hi), 0, 6, func(x uint64) bool { return lo <= x && x <= hi })
	}
	if v.InRange(10, 5) != False {
		t.Error("empty range should be False")
	}
}

func TestVecEq(t *testing.T) {
	p := NewPool(8)
	a := NewVec(p, 0, 4)
	b := NewVec(p, 4, 4)
	f := a.Eq(b)
	vals := make([]bool, 8)
	for x := uint64(0); x < 16; x++ {
		for y := uint64(0); y < 16; y++ {
			for i := 0; i < 4; i++ {
				vals[i] = x>>uint(3-i)&1 == 1
				vals[4+i] = y>>uint(3-i)&1 == 1
			}
			if got := p.Eval(f, vals); got != (x == y) {
				t.Fatalf("Eq(%d,%d) = %v", x, y, got)
			}
		}
	}
}

func TestVecPrefixEq(t *testing.T) {
	p := NewPool(8)
	v := NewVec(p, 0, 8)
	// Prefix 0b1010xxxx (value 0xA0, length 4).
	f := v.PrefixEq(0xA0, 4)
	evalVecTruth(t, p, f, 0, 8, func(x uint64) bool { return x>>4 == 0xA })
	// Zero-length prefix matches everything.
	if v.PrefixEq(0xFF, 0) != True {
		t.Error("zero-length prefix should be True")
	}
	// Full-length prefix is equality.
	if v.PrefixEq(0x5C, 8) != v.EqConst(0x5C) {
		t.Error("full-length prefix != equality")
	}
}

func TestEncodeDecodeVec(t *testing.T) {
	p := NewPool(16)
	v := NewVec(p, 3, 10)
	vals := make([]bool, p.NumVars())
	v.Encode(vals, 777)
	if !p.Eval(v.EqConst(777), vals) {
		t.Fatal("encoded value does not satisfy EqConst")
	}
	asg := make(Cube, len(vals))
	for lvl, b := range vals {
		if b {
			asg[lvl] = 1
		}
	}
	if got := v.Decode(asg); got != 777 {
		t.Fatalf("round trip: got %d", got)
	}
	// Don't-care bits decode to zero.
	if got := v.Decode(p.newCube()); got != 0 {
		t.Fatalf("empty assignment decoded to %d", got)
	}
	outside := cubeWith(16, 0, 1)
	outside[13] = 0
	if v.Assigned(outside) || !v.Assigned(cubeWith(16, 12, 0)) {
		t.Fatal("Assigned must see exactly the vector's levels 3..12")
	}
}

func TestQuickVecRangeWitness(t *testing.T) {
	// For any lo<=hi, AnySat of InRange yields a value inside the range.
	p := NewPool(10)
	v := NewVec(p, 0, 10)
	check := func(a, b uint16) bool {
		lo := uint64(a) % 1024
		hi := uint64(b) % 1024
		if lo > hi {
			lo, hi = hi, lo
		}
		f := v.InRange(lo, hi)
		asg, ok := p.AnySat(f)
		if !ok {
			return false
		}
		x := v.Decode(asg)
		return lo <= x && x <= hi
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickVecCountsRange(t *testing.T) {
	p := NewPool(8)
	v := NewVec(p, 0, 8)
	check := func(a, b uint8) bool {
		lo, hi := uint64(a), uint64(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		f := v.InRange(lo, hi)
		return p.SatCount(f).Int64() == int64(hi-lo+1)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickPrefixContainment(t *testing.T) {
	// A longer prefix implies its shorter ancestor.
	rng := rand.New(rand.NewSource(5))
	p := NewPool(16)
	v := NewVec(p, 0, 16)
	check := func() bool {
		addr := uint64(rng.Intn(1 << 16))
		short := rng.Intn(17)
		long := short + rng.Intn(17-short)
		fShort := v.PrefixEq(addr, short)
		fLong := v.PrefixEq(addr, long)
		return p.Implies(fLong, fShort) == True
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
