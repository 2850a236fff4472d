package rx

import (
	"math/bits"
	"slices"
)

// internTable numbers fixed-width keys with dense int32 ids in the order they
// are first seen. Like bdd's unique table it stores no keys: key i is
// keys[i*w:(i+1)*w] of the caller's flat array, which intern appends to, and
// a slot holds an id+1, so 0 marks an empty slot. The table is open-addressed
// and linear-probed, and doubles at 3/4 load by rehashing the keys in the
// caller's array.
type internTable[E int32 | uint64] struct {
	slots []int32
	n     int32
}

// intern returns key's id among the keys of *keys, all of key's width,
// appending key to *keys as the next id when it is new.
func (t *internTable[E]) intern(keys *[]E, key []E) (id int32, fresh bool) {
	if len(t.slots) == 0 {
		t.slots = make([]int32, 16)
	}
	w := len(key)
	mask := uint64(len(t.slots) - 1)
	for i := hashKey(key) & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			id = t.n
			t.slots[i] = id + 1
			t.n++
			*keys = append(*keys, key...)
			if int(t.n)*4 >= len(t.slots)*3 {
				t.grow(*keys, w)
			}
			return id, true
		}
		if slices.Equal((*keys)[int(s-1)*w:int(s)*w], key) {
			return s - 1, false
		}
	}
}

// grow doubles the table and reinserts every id.
func (t *internTable[E]) grow(keys []E, w int) {
	t.slots = make([]int32, 2*len(t.slots))
	mask := uint64(len(t.slots) - 1)
	for id := int32(0); id < t.n; id++ {
		i := hashKey(keys[int(id)*w:int(id+1)*w]) & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = id + 1
	}
}

// reset forgets every id and keeps the slots for reuse.
func (t *internTable[E]) reset() {
	clear(t.slots)
	t.n = 0
}

// hashKey mixes a key's words into a table index seed. Even and odd words
// go to two independent multiply chains, so a long key (a product tuple, a
// Moore signature) hashes at about two cycles a word.
func hashKey[E int32 | uint64](key []E) uint64 {
	a, b := uint64(len(key)), uint64(0)
	i := 0
	for ; i+1 < len(key); i += 2 {
		a = (a ^ uint64(key[i])) * 0x9e3779b97f4a7c15
		b = (b ^ uint64(key[i+1])) * 0xc2b2ae3d27d4eb4f
	}
	if i < len(key) {
		a = (a ^ uint64(key[i])) * 0x9e3779b97f4a7c15
	}
	h := a ^ bits.RotateLeft64(b, 32)
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return h
}
