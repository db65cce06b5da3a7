package route

import "encoding/binary"

// RadixTree is a binary radix trie in the style of the BSD routing table
// used by the paper's IPv4-radix application: one bit is consumed per
// level, nodes carry an optional next hop where a prefix terminates, and
// lookup walks from the most significant bit tracking the longest match
// seen. It is deliberately the straightforward, unoptimized structure —
// the paper attributes IPv4-radix's high instruction counts to exactly
// this overhead of "maintaining and traversing the radix tree".
type RadixTree struct {
	root  *radixNode
	nodes int
}

type radixNode struct {
	left, right *radixNode
	// hop is 0 when no prefix terminates at this node, otherwise the next
	// hop value (which is >= 1 by the package convention).
	hop uint32
	// key and depth identify the node's position: the path from the root
	// spells the top `depth` bits of key (remaining bits zero). They are
	// serialized so the simulated application can perform the BSD-style
	// key/mask verification during its backtracking phase.
	key   uint32
	depth uint8
}

// NewRadixTree builds a radix tree from a table.
func NewRadixTree(t *Table) *RadixTree {
	r := &RadixTree{root: &radixNode{}, nodes: 1}
	for _, e := range t.Entries {
		r.insert(e)
	}
	return r
}

func (r *RadixTree) insert(e Entry) {
	n := r.root
	for i := 0; i < e.Len; i++ {
		bit := e.Prefix >> (31 - uint(i)) & 1
		var next **radixNode
		if bit == 0 {
			next = &n.left
		} else {
			next = &n.right
		}
		if *next == nil {
			*next = &radixNode{
				key:   e.Prefix & Mask(i+1),
				depth: uint8(i + 1),
			}
			r.nodes++
		}
		n = *next
	}
	n.hop = e.NextHop
}

// Nodes returns the number of allocated tree nodes.
func (r *RadixTree) Nodes() int { return r.nodes }

// Lookup performs longest-prefix match.
func (r *RadixTree) Lookup(addr uint32) (uint32, bool) {
	var best uint32
	n := r.root
	for i := 0; n != nil; i++ {
		if n.hop != 0 {
			best = n.hop
		}
		if i == 32 {
			break
		}
		if addr>>(31-uint(i))&1 == 0 {
			n = n.left
		} else {
			n = n.right
		}
	}
	return best, best != 0
}

// RadixNodeSize is the serialized size of one radix node in simulated
// memory.
const RadixNodeSize = 24

// Serialize lays the tree out in simulated memory for the PB32 IPv4-radix
// application. Nodes are RadixNodeSize bytes, little endian:
//
//	+0  left child address (absolute; 0 = none)
//	+4  right child address
//	+8  next hop (0 = no prefix terminates here)
//	+12 key: the prefix bits spelled by the path to this node
//	+16 mask: netmask of the node's depth
//	+20 bit index to test at this node (the node's depth; BSD's rn_off)
//
// The root node is placed first, at base. The returned image starts at
// base; the root address equals base.
func (r *RadixTree) Serialize(base uint32) (image []byte, rootAddr uint32) {
	// Lay nodes out in breadth-first order with the root first. order is
	// the BFS queue itself, so a child's address is known the moment it
	// is enqueued: base plus the queue length times the node size.
	order := make([]*radixNode, 1, r.nodes)
	order[0] = r.root
	image = make([]byte, r.nodes*RadixNodeSize)
	for i := 0; i < len(order); i++ {
		n := order[i]
		off := i * RadixNodeSize
		if n.left != nil {
			binary.LittleEndian.PutUint32(image[off:], base+uint32(len(order))*RadixNodeSize)
			order = append(order, n.left)
		}
		if n.right != nil {
			binary.LittleEndian.PutUint32(image[off+4:], base+uint32(len(order))*RadixNodeSize)
			order = append(order, n.right)
		}
		binary.LittleEndian.PutUint32(image[off+8:], n.hop)
		binary.LittleEndian.PutUint32(image[off+12:], n.key)
		binary.LittleEndian.PutUint32(image[off+16:], Mask(int(n.depth)))
		binary.LittleEndian.PutUint32(image[off+20:], uint32(n.depth))
	}
	return image, base
}
