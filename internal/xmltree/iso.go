package xmltree

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"sort"
	"strings"
)

// Code returns a canonical string encoding of the subtree rooted at n.
// Two subtrees are isomorphic in the sense of Definition 1 (labeled,
// unordered tree isomorphism) if and only if their codes are equal. The
// encoding follows the Aho-Hopcroft-Ullman scheme extended with labels:
// a node's code is its (escaped) label followed by the sorted codes of its
// children, wrapped in parentheses.
func Code(n *Node) string {
	var b strings.Builder
	writeCode(&b, n)
	return b.String()
}

func writeCode(b *strings.Builder, n *Node) {
	b.WriteByte('(')
	b.WriteString(escapeLabel(*n.label))
	if len(n.children) > 0 {
		codes := make([]string, len(n.children))
		for i, c := range n.children {
			codes[i] = Code(c)
		}
		sort.Strings(codes)
		for _, c := range codes {
			b.WriteString(c)
		}
	}
	b.WriteByte(')')
}

// canonical is one tree's canonical child order, computed once per call:
// the subtree's nodes in preorder, each node's Code (built bottom-up from
// its children's, as writeCode does), and each node's children sorted by
// (code, identity). Comparisons do not re-encode subtrees, so the writers
// that use it cost O(Σ code lengths) = O(|t|·depth) rather than
// re-encoding both operands on every comparison.
type canonical struct {
	nodes []*Node
	codes []string
	// node i's children, in canonical order, as indexes into nodes:
	// kids[first[i] : first[i]+len(nodes[i].children)].
	first []int32
	kids  []int32
}

func canonicalOrder(root *Node) *canonical {
	c := &canonical{}
	c.visit(root)
	return c
}

func (c *canonical) visit(n *Node) int32 {
	i := int32(len(c.nodes))
	c.nodes = append(c.nodes, n)
	c.codes = append(c.codes, "")
	f := len(c.kids)
	c.first = append(c.first, int32(f))
	for range n.children {
		c.kids = append(c.kids, 0)
	}
	for k, ch := range n.children {
		c.kids[f+k] = c.visit(ch)
	}
	ks := c.kids[f : f+len(n.children)]
	slices.SortFunc(ks, func(a, b int32) int {
		if d := strings.Compare(c.codes[a], c.codes[b]); d != 0 {
			return d
		}
		return cmp.Compare(c.nodes[a].ID(), c.nodes[b].ID())
	})
	label := escapeLabel(*n.label)
	size := len(label) + 2
	for _, k := range ks {
		size += len(c.codes[k])
	}
	var b strings.Builder
	b.Grow(size)
	b.WriteByte('(')
	b.WriteString(label)
	for _, k := range ks {
		b.WriteString(c.codes[k])
	}
	b.WriteByte(')')
	c.codes[i] = b.String()
	return i
}

// children returns node i's children in canonical order.
func (c *canonical) children(i int32) []int32 {
	f := c.first[i]
	return c.kids[f : int(f)+len(c.nodes[i].children)]
}

// escapeLabel makes labels safe inside the parenthesized encoding.
func escapeLabel(l string) string {
	if !strings.ContainsAny(l, `()\`) {
		return l
	}
	r := strings.NewReplacer(`\`, `\\`, `(`, `\(`, `)`, `\)`)
	return r.Replace(l)
}

// Digest returns a fixed-length hex digest of the tree's canonical AHU
// code: two trees have equal digests iff they are isomorphic (up to
// SHA-256 collisions). The durable store records it with every WAL
// record and snapshot so recovery can re-verify that replay reproduced
// exactly the tree that was acknowledged.
func (t *Tree) Digest() string {
	sum := sha256.Sum256([]byte(Code(t.root)))
	return hex.EncodeToString(sum[:])
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
// the sorted child codes. Building those codes costs O(|t|·depth) (each
// node's code is rebuilt once per ancestor), not O(|t|); the label and
// count checks only cut clearly different roots short.
func isoNodes(a, b *Node) bool {
	if *a.label != *b.label || len(a.children) != len(b.children) {
		return false
	}
	return sameCodes(a.children, b.children)
}

// IsomorphicDerived reports whether a and b are isomorphic (Definition 1)
// when both derive from the tree pre: each is a Clone of pre with its
// modified flags cleared, changed since only by operations that mark every
// change point and its ancestors (MarkModified), as insertion and deletion
// do. The answer is exact, and the cost tracks what the two derivations
// changed rather than the size of the tree:
//
//   - A child that keeps a source identity (below pre's next identity) is
//     the same node of pre on both sides. If it is unmodified on both, its
//     subtree is pre's on both, so it cancels from its parent's child
//     multiset.
//   - Fresh nodes draw identities from pre's next identity in both trees,
//     so an identity at or above it names unrelated nodes on the two sides
//     and never cancels or pairs.
//   - What remains is compared pairwise by identity when it pairs up, and
//     by canonical codes otherwise (or when a pair differs and another
//     matching could still succeed).
func IsomorphicDerived(pre, a, b *Tree) bool {
	return isoDerived(a.root, b.root, pre.nextID)
}

// isoDerived compares x and y, two copies of the same node of pre.
func isoDerived(x, y *Node, next int) bool {
	if !x.Modified() && !y.Modified() {
		return true
	}
	if *x.label != *y.label || len(x.children) != len(y.children) {
		return false
	}
	// Both child lists keep pre's order, in which identities ascend, so a
	// merge by identity matches every source child present on both sides.
	// Out of order (possible only after Attach), some would go unmatched
	// and be compared by code instead: slower, still exact, because only
	// a node identical on both sides ever cancels.
	xs, ys := x.children, y.children
	var rx, ry []*Node
	paired := true
	for i, j := 0, 0; i < len(xs) || j < len(ys); {
		switch {
		case i < len(xs) && xs[i].ID() >= next: // fresh: never cancels
			rx, i, paired = append(rx, xs[i]), i+1, false
		case j < len(ys) && ys[j].ID() >= next:
			ry, j, paired = append(ry, ys[j]), j+1, false
		case j == len(ys) || i < len(xs) && xs[i].ID() < ys[j].ID(): // gone from y
			rx, i, paired = append(rx, xs[i]), i+1, false
		case i == len(xs) || ys[j].ID() < xs[i].ID(): // gone from x
			ry, j, paired = append(ry, ys[j]), j+1, false
		default: // the same node of pre on both sides
			if xs[i].Modified() || ys[j].Modified() {
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
	ac := make([]string, len(a))
	bc := make([]string, len(b))
	for i := range a {
		ac[i], bc[i] = Code(a[i]), Code(b[i])
	}
	sort.Strings(ac)
	sort.Strings(bc)
	return slices.Equal(ac, bc)
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
	as := map[string]bool{}
	for _, n := range a {
		as[Code(n)] = true
	}
	bs := map[string]bool{}
	for _, n := range b {
		bs[Code(n)] = true
	}
	if len(as) != len(bs) {
		return false
	}
	for c := range as {
		if !bs[c] {
			return false
		}
	}
	return true
}

// SortByID sorts nodes in place by identity and returns the slice; useful
// for deterministic output of evaluation results.
func SortByID(ns []*Node) []*Node {
	sort.Slice(ns, func(i, j int) bool { return ns[i].ID() < ns[j].ID() })
	return ns
}
