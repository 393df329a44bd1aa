package xmltree

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"sort"
	"sync"
)

// Code returns a canonical string encoding of the subtree rooted at n.
// Two subtrees are isomorphic in the sense of Definition 1 (labeled,
// unordered tree isomorphism) if and only if their codes are equal. The
// encoding follows the Aho-Hopcroft-Ullman scheme extended with labels:
// a node's code is its (escaped) label followed by the sorted codes of its
// children, wrapped in parentheses.
func Code(n *Node) string {
	c := canonicalOrder(n)
	defer c.release()
	return string(c.code(0))
}

// AppendCode appends Code(n) to dst and returns the extended buffer,
// for callers that build a larger key around it.
func AppendCode(dst []byte, n *Node) []byte {
	c := canonicalOrder(n)
	defer c.release()
	return append(dst, c.code(0)...)
}

// canonical is the canonical-code kernel every writer runs on: one pass
// over one or more subtrees that lists their nodes in preorder, builds
// each node's AHU code as a span of one byte buffer, and orders each
// node's children by (code bytes, identity). Code, Digest, XML, Write
// and String read its buffer or its order; the isomorphism tests compare
// spans of it.
//
// A node's code is built in place: its label, then its children's codes
// as the recursion leaves them, which the node then reorders into sorted
// order. A finished code is therefore contiguous when its parent sorts,
// and the whole pass costs O(Σ code lengths) = O(|t|·depth) bytes moved,
// with no string per node.
type canonical struct {
	buf   []byte
	nodes []*Node
	// span[i] is node i's code in buf, valid until its parent reorders
	// its children; the roots' spans stay valid.
	span [][2]int32
	// node i's children, in canonical order, as indexes into nodes:
	// kids[first[i] : first[i]+len(nodes[i].children)].
	first []int32
	kids  []int32
	roots []int32
	tmp   []byte
	cmp   func(a, b int32) int // compare, bound once
}

var canonicalPool = sync.Pool{New: func() any {
	c := new(canonical)
	c.cmp = c.compare
	return c
}}

// canonicalOrder runs the kernel over the subtrees rooted at the given
// nodes. The caller releases the result.
func canonicalOrder(roots ...*Node) *canonical {
	c := canonicalPool.Get().(*canonical)
	for _, r := range roots {
		c.roots = append(c.roots, c.visit(r))
	}
	return c
}

// release returns c to the pool, dropping its node references.
func (c *canonical) release() {
	clear(c.nodes)
	c.buf, c.nodes, c.span, c.first, c.kids, c.roots, c.tmp =
		c.buf[:0], c.nodes[:0], c.span[:0], c.first[:0], c.kids[:0], c.roots[:0], c.tmp[:0]
	canonicalPool.Put(c)
}

// code returns the code of the k-th root.
func (c *canonical) code(k int) []byte {
	s := c.span[c.roots[k]]
	return c.buf[s[0]:s[1]]
}

func (c *canonical) visit(n *Node) int32 {
	i := int32(len(c.nodes))
	c.nodes = append(c.nodes, n)
	c.span = append(c.span, [2]int32{})
	f := len(c.kids)
	c.first = append(c.first, int32(f))
	for range n.children {
		c.kids = append(c.kids, 0)
	}
	start := len(c.buf)
	c.buf = append(c.buf, '(')
	c.buf = appendEscaped(c.buf, n.label)
	mid := len(c.buf)
	for k, ch := range n.children {
		v := c.visit(ch) // may grow c.kids
		c.kids[f+k] = v
	}
	ks := c.kids[f : f+len(n.children)]
	if len(ks) > 1 && !slices.IsSortedFunc(ks, c.cmp) {
		slices.SortFunc(ks, c.cmp)
		// Rewrite the children's codes in their canonical order.
		c.tmp = c.tmp[:0]
		for _, k := range ks {
			s := c.span[k]
			at := int32(mid + len(c.tmp))
			c.tmp = append(c.tmp, c.buf[s[0]:s[1]]...)
			c.span[k] = [2]int32{at, at + s[1] - s[0]}
		}
		copy(c.buf[mid:], c.tmp)
	}
	c.buf = append(c.buf, ')')
	c.span[i] = [2]int32{int32(start), int32(len(c.buf))}
	return i
}

// compare orders two finished nodes by code bytes, then identity.
func (c *canonical) compare(a, b int32) int {
	sa, sb := c.span[a], c.span[b]
	if d := bytes.Compare(c.buf[sa[0]:sa[1]], c.buf[sb[0]:sb[1]]); d != 0 {
		return d
	}
	return cmp.Compare(c.nodes[a].id, c.nodes[b].id)
}

// children returns node i's children in canonical order.
func (c *canonical) children(i int32) []int32 {
	f := c.first[i]
	return c.kids[f : int(f)+len(c.nodes[i].children)]
}

// appendEscaped appends a label made safe inside the parenthesized
// encoding: '(', ')' and '\' are escaped with a backslash.
func appendEscaped(b []byte, l string) []byte {
	for i := 0; i < len(l); i++ {
		switch l[i] {
		case '(', ')', '\\':
			b = append(b, '\\')
		}
		b = append(b, l[i])
	}
	return b
}

// Digest returns a fixed-length hex digest of the tree's canonical AHU
// code: two trees have equal digests iff they are isomorphic (up to
// SHA-256 collisions). The durable store records it with every WAL
// record and snapshot so recovery can re-verify that replay reproduced
// exactly the tree that was acknowledged.
func (t *Tree) Digest() string {
	c := canonicalOrder(t.root)
	sum := sha256.Sum256(c.code(0))
	c.release()
	return hex.EncodeToString(sum[:])
}

// DigestXML returns Digest() and XML() from one canonical pass, for a
// caller that records both, as the store does when it creates a
// document.
func (t *Tree) DigestXML() (digest, xml string) {
	c := canonicalOrder(t.root)
	defer c.release()
	sum := sha256.Sum256(c.code(0))
	c.tmp = c.appendXML(c.tmp[:0], 0, xmlName)
	return hex.EncodeToString(sum[:]), string(c.tmp)
}

// Isomorphic reports whether two trees are isomorphic (Definition 1).
func Isomorphic(a, b *Tree) bool {
	return IsomorphicNodes(a.root, b.root)
}

// IsomorphicNodes reports whether the subtrees rooted at a and b are
// isomorphic (Definition 1).
func IsomorphicNodes(a, b *Node) bool {
	return isoNodes(a, b)
}

// isoNodes decides isomorphism by comparing labels and child counts, then
// the multisets of child codes; the label and count checks only cut
// clearly different roots short.
func isoNodes(a, b *Node) bool {
	if a.label != b.label || len(a.children) != len(b.children) {
		return false
	}
	return sameCodes(a.children, b.children)
}

// IsomorphicDerived reports whether a and b are isomorphic (Definition 1)
// when both derive from the tree pre through ops.Update.Apply, which
// changes no node of its input and copies the root path of every change
// point: a node of a version is pre's node exactly when its subtree is
// pre's. The answer is exact, and the cost tracks what the two
// derivations changed rather than the size of the tree:
//
//   - A child that is the same node on both sides has the same subtree on
//     both, so it cancels from its parent's child multiset. Nodes are
//     shared only with pre (each derivation copies and grafts its own),
//     so that is a node of pre neither derivation changed.
//   - Fresh nodes draw identities from pre's next identity in both trees,
//     so an identity at or above it names unrelated nodes on the two sides
//     and never pairs.
//   - What remains is compared pairwise by identity when it pairs up, and
//     by canonical codes otherwise (or when a pair differs and another
//     matching could still succeed).
func IsomorphicDerived(pre, a, b *Tree) bool {
	return isoDerived(a.root, b.root, pre.nextID)
}

// isoDerived compares x and y, two versions of the same node of pre.
func isoDerived(x, y *Node, next int) bool {
	if x == y {
		return true
	}
	if x.label != y.label || len(x.children) != len(y.children) {
		return false
	}
	// Both child lists keep pre's order, in which identities ascend, so a
	// merge by identity matches every source child present on both sides.
	// Out of order (possible only after Attach), some would go unmatched
	// and be compared by code instead: slower, still exact, because only
	// a node shared by both sides ever cancels.
	xs, ys := x.children, y.children
	var rx, ry []*Node
	paired := true
	for i, j := 0, 0; i < len(xs) || j < len(ys); {
		switch {
		case i < len(xs) && xs[i].id >= next: // fresh: never pairs
			rx, i, paired = append(rx, xs[i]), i+1, false
		case j < len(ys) && ys[j].id >= next:
			ry, j, paired = append(ry, ys[j]), j+1, false
		case j == len(ys) || i < len(xs) && xs[i].id < ys[j].id: // gone from y
			rx, i, paired = append(rx, xs[i]), i+1, false
		case i == len(xs) || ys[j].id < xs[i].id: // gone from x
			ry, j, paired = append(ry, ys[j]), j+1, false
		default: // versions of the same node of pre
			if xs[i] != ys[j] {
				rx, ry = append(rx, xs[i]), append(ry, ys[j])
			}
			i, j = i+1, j+1
		}
	}
	if paired {
		same := true
		for k := range rx {
			if !isoDerived(rx[k], ry[k], next) {
				same = false
				break
			}
		}
		// One differing pair is the whole remainder: no other matching.
		if same || len(rx) == 1 {
			return same
		}
	}
	return sameCodes(rx, ry)
}

// sameCodes reports whether two node lists hold the same multiset of
// subtree isomorphism classes.
func sameCodes(a, b []*Node) bool {
	if len(a) != len(b) {
		return false
	}
	return sameCodeLists(a, b, false)
}

// sameCodeLists runs the kernel once over a and b and compares their
// sorted code lists, as sets when dedup is set.
func sameCodeLists(a, b []*Node, dedup bool) bool {
	c := canonicalOrder(append(slices.Clip(a), b...)...)
	defer c.release()
	codes := func(ks []int32) [][]byte {
		out := make([][]byte, len(ks))
		for i, k := range ks {
			s := c.span[k]
			out[i] = c.buf[s[0]:s[1]]
		}
		slices.SortFunc(out, bytes.Compare)
		if dedup {
			out = slices.CompactFunc(out, bytes.Equal)
		}
		return out
	}
	return slices.EqualFunc(codes(c.roots[:len(a)]), codes(c.roots[len(a):]), bytes.Equal)
}

// SameNodeSet reports whether two node slices contain the same node
// identities (Definition 2 applied to operation results). Duplicates are
// ignored; evaluation results are sets.
func SameNodeSet(a, b []*Node) bool {
	as := map[int]bool{}
	for _, n := range a {
		as[n.ID()] = true
	}
	bs := map[int]bool{}
	for _, n := range b {
		bs[n.ID()] = true
	}
	if len(as) != len(bs) {
		return false
	}
	for id := range as {
		if !bs[id] {
			return false
		}
	}
	return true
}

// SameIsoClasses reports whether the sets of isomorphism classes of the
// subtrees rooted at the given nodes coincide. This is the set-of-trees
// isomorphism of Definition 1 (each tree on one side must have an
// isomorphic counterpart on the other side) used by the value-based
// conflict semantics (Definitions 5-6).
func SameIsoClasses(a, b []*Node) bool {
	return sameCodeLists(a, b, true)
}

// SortByID sorts nodes in place by identity and returns the slice; useful
// for deterministic output of evaluation results.
func SortByID(ns []*Node) []*Node {
	sort.Slice(ns, func(i, j int) bool { return ns[i].ID() < ns[j].ID() })
	return ns
}
