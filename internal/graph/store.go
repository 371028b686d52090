package graph

import "hash/maphash"

// This file holds the storage a graph is built into: slabs that hand out
// its nodes and tensors, and the index that finds its tensors by name.

// Slab lengths: 512 nodes of 112 bytes and 1,024 tensors of 120 bytes are
// 7 and 15 whole 8 KiB pages (TestSlabsArePageAligned).
const (
	nodeSlabLen   = 512
	tensorSlabLen = 1024
)

// slab hands out zeroed values of T from blocks allocated n at a time, so
// a graph costs one allocation per block of nodes or tensors instead of
// one per node or tensor. A block that is a whole number of pages wastes
// no partial page, so only the graph's last, partly used block of each
// kind adds to its retained heap.
type slab[T any] struct {
	free []T
}

// next returns the next unused value, allocating a block of n first if
// the current one is used up.
func (s *slab[T]) next(n int) *T {
	if len(s.free) == 0 {
		s.free = make([]T, n)
	}
	v := &s.free[0]
	s.free = s.free[1:]
	return v
}

// nameIndex finds a graph's tensors by name: an open-addressing hash
// table of tensor ids with linear probing, kept at most half full. A name
// is hashed once per lookup, and growing the table re-places the stored
// hashes without hashing any name again, where a Go map would rehash
// every name each time it grows.
type nameIndex struct {
	seed  maphash.Seed
	slots []nameSlot // length a power of two
	n     int        // names held
}

// nameSlot is one table entry: a name's hash and its tensor's id plus
// one, so the zero slot is empty.
type nameSlot struct {
	hash uint32
	id1  int32
}

// lookup returns the id of the tensor of tensors named name, or -1 if the
// index holds no such name, and the name's hash.
func (x *nameIndex) lookup(name string, tensors []*Tensor) (id int32, h uint32) {
	h = uint32(maphash.String(x.seed, name))
	if len(x.slots) == 0 {
		return -1, h
	}
	mask := len(x.slots) - 1
	for i := int(h) & mask; x.slots[i].id1 != 0; i = (i + 1) & mask {
		if s := x.slots[i]; s.hash == h && tensors[s.id1-1].Name == name {
			return s.id1 - 1, h
		}
	}
	return -1, h
}

// add records tensor id under a name of hash h that the index does not
// hold yet.
func (x *nameIndex) add(h uint32, id int32) {
	if 2*(x.n+1) > len(x.slots) {
		old := x.slots
		x.slots = make([]nameSlot, max(16, 2*len(old)))
		for _, s := range old {
			if s.id1 != 0 {
				x.place(s)
			}
		}
	}
	x.place(nameSlot{hash: h, id1: id + 1})
	x.n++
}

// place puts s in the first empty slot from its hash on.
func (x *nameIndex) place(s nameSlot) {
	mask := len(x.slots) - 1
	i := int(s.hash) & mask
	for x.slots[i].id1 != 0 {
		i = (i + 1) & mask
	}
	x.slots[i] = s
}
