package fissione

import (
	"fmt"

	"armada/internal/kautz"
)

// cover indexes the live identifiers by what they are: the leaves of the
// Kautz partition tree, ternary at the root and binary below it, stored flat
// in one array of cells. A cell stands for one name and holds 0 (nothing is
// registered at or below the name), the base of the name's inner node — its
// children's cells, adjacent, lower symbol first — or ^slot, the leaf
// registered under exactly that name. Cell 0 stands for the empty name and
// holds rootBase; cell noCell stays empty. Every other base is even, so a
// node is 8 aligned bytes and a cell's sibling is its index with the low bit
// flipped. Every question is one walk from cell 0 that hashes nothing and
// builds no string, and put and del cost the name's length whatever else the
// network holds. Between mutations the names cover the namespace exactly:
// every inner node has both children, N leaves hang from N−3 of them.
type cover struct {
	cells []int32
	free  []int32 // bases of released inner nodes, reused before cells grows
}

const (
	noCell    = 1   // where a walk that met a byte it cannot follow ends
	rootBase  = 2   // the root's three cells, and one of padding
	firstNode = 6   // the lowest base an inner node below the root may have
	rootPrev  = '3' // "the symbol before" at the root: child then yields c−'0'
)

// child is the index, within the node reached by symbol prev, of the cell
// for symbol c ≠ prev: c's rank among the symbols that may follow prev.
func child(prev, c byte) int { return int(c-'0') - int((prev-c)>>7) }

// reset empties the cover and sizes it for the inner nodes of peers leaves.
func (c *cover) reset(peers int) {
	c.cells = make([]int32, firstNode, firstNode+2*max(0, peers-3))
	c.cells[0], c.free = rootBase, nil
}

// descend follows name's symbols down from cell at, reached by symbol prev,
// until it stands on a cell that is no inner node or name runs out, and
// returns that cell and how many symbols led to it. Names come from outside:
// a byte that is no symbol, or repeats the one before it, ends the walk on
// noCell.
func (c *cover) descend(at int, prev byte, name kautz.Str) (int, int) {
	for i := 0; i < len(name); i++ {
		base, ch := int(c.cells[at]), name[i]
		if base <= 0 {
			return at, i
		}
		if ch-'0' > 2 || ch == prev {
			return noCell, i
		}
		at, prev = base+child(prev, ch), ch
	}
	return at, len(name)
}

// owner returns the slot registered under a prefix of name.
func (c *cover) owner(name kautz.Str) (int32, bool) {
	at, _ := c.descend(0, rootPrev, name)
	return ^c.cells[at], c.cells[at] < 0
}

// ownerKey is owner for the name of length k whose rank is key: the rank's
// top digit picks the root's cell, each bit below it a child.
func (c *cover) ownerKey(key uint64, k int) (int32, bool) {
	if key >= kautz.SpaceSize(k) {
		return 0, false
	}
	at := rootBase + int(key>>uint(k-1))
	for bit := k - 2; c.cells[at] > 0 && bit >= 0; bit-- {
		at = int(c.cells[at]) + int(key>>uint(bit)&1)
	}
	return ^c.cells[at], c.cells[at] < 0
}

// get returns the slot registered under exactly name.
func (c *cover) get(name kautz.Str) (int32, bool) {
	at, depth := c.descend(0, rootPrev, name)
	return ^c.cells[at], c.cells[at] < 0 && depth == len(name)
}

// sibling returns the slot registered under the other child of the
// registered name's parent, if that child is a leaf too. Names directly
// under the ternary root have two siblings and report none.
func (c *cover) sibling(name kautz.Str) (int32, bool) {
	at, depth := c.descend(0, rootPrev, name)
	return ^c.cells[at^1], c.cells[at] < 0 && depth == len(name) && depth >= 2 && c.cells[at^1] < 0
}

// appendUnder appends, ascending by identifier, the slots registered at or
// below lead·name — or the one registered above it — except slot skip. A
// lead of 0 means name alone.
func (c *cover) appendUnder(dst []int32, lead byte, name kautz.Str, skip int32) []int32 {
	at, prev := 0, byte(rootPrev)
	if lead != 0 {
		at, prev = rootBase+int(lead-'0'), lead
	}
	if at, _ = c.descend(at, prev, name); at == 0 {
		return c.appendLeaves(dst, c.cells[rootBase:rootBase+3], skip)
	}
	return c.appendLeaves(dst, c.cells[at:at+1], skip)
}

// appendLeaves walks the subtrees hanging from cells in order.
func (c *cover) appendLeaves(dst []int32, cells []int32, skip int32) []int32 {
	for _, v := range cells {
		if v > 0 {
			dst = c.appendLeaves(dst, c.cells[v:v+2], skip)
		} else if v < 0 && ^v != skip {
			dst = append(dst, ^v)
		}
	}
	return dst
}

// put registers name for slot, growing the inner nodes that lead to it.
func (c *cover) put(name kautz.Str, slot int32) error {
	at, depth := c.descend(0, rootPrev, name)
	if c.cells[at] != 0 || !kautz.Valid(name) {
		return fmt.Errorf("%w: cannot register %q: it is no identifier, or lies above or below a registered one", ErrCorrupt, name)
	}
	for ; depth < len(name); depth++ {
		base := len(c.cells)
		if f := len(c.free) - 1; f >= 0 {
			base, c.free = int(c.free[f]), c.free[:f]
		} else {
			c.cells = append(c.cells, 0, 0)
		}
		c.cells[at] = int32(base)
		at = base + child(name[depth-1], name[depth])
	}
	c.cells[at] = ^slot
	return nil
}

// del unregisters name and releases the inner nodes that led to nothing
// else, reporting whether name was registered.
func (c *cover) del(name kautz.Str) bool {
	_, ok := c.get(name)
	if ok {
		c.unlink(0, rootPrev, name)
	}
	return ok
}

// unlink empties the cell the registered name leads to from cell at, then,
// on the way back up, every cell whose inner node that left with nothing.
func (c *cover) unlink(at int, prev byte, name kautz.Str) {
	if len(name) > 0 {
		next := int(c.cells[at]) + child(prev, name[0])
		c.unlink(next, name[0], name[1:])
		if at == 0 || c.cells[next]|c.cells[next^1] != 0 {
			return
		}
		c.free = append(c.free, c.cells[at])
	}
	c.cells[at] = 0
}
