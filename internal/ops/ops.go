// Package ops implements the read, insertion, and deletion operations of
// Section 3 of "Conflicting XML Updates" with the reference-based
// semantics of XQuery updates and XJ, together with the polynomial-time
// witness checkers of Lemma 1 for all three conflict semantics (node,
// tree, value). Node identities survive an update, and each update
// returns a new version of the tree that shares the subtrees it left
// alone.
package ops

import (
	"fmt"
	"slices"

	"xmlconflict/internal/match"
	"xmlconflict/internal/pattern"
	"xmlconflict/internal/xmltree"
)

// Read is READ_p: evaluating it on t projects the node set [[p]](t).
type Read struct {
	P *pattern.Pattern
}

// Eval returns [[p]](t), sorted by node identity.
func (r Read) Eval(t *xmltree.Tree) []*xmltree.Node {
	return match.Eval(r.P, t)
}

// EvalSubtrees returns [[p]]_T(t): the subtrees of t rooted at the nodes of
// [[p]](t), represented by their root nodes.
func (r Read) EvalSubtrees(t *xmltree.Tree) []*xmltree.Node {
	return r.Eval(t)
}

// Update is an operation that produces a new version of a tree: INSERT
// or DELETE.
type Update interface {
	// Apply returns the version of t the update produces and its points,
	// [[p]](t) as nodes of t in identity order. It changes no node of t:
	// the result copies the root path of every point, keeping identities,
	// and shares every other node with t. A node of the result is
	// therefore modified — its subtree differs from t's — exactly when it
	// is not t's node with its identity, and the tree-conflict checks and
	// CommuteWitness compare by that pointer identity.
	Apply(t *xmltree.Tree) (*xmltree.Tree, []*xmltree.Node, error)
	// Pattern returns the operation's tree pattern.
	Pattern() *pattern.Pattern
	// Kind returns "insert" or "delete".
	Kind() string
}

// Insert is INSERT_{p,X}: evaluate p on t and add a fresh copy of X as a
// child of every node in the result.
type Insert struct {
	P *pattern.Pattern
	X *xmltree.Tree
}

// Pattern returns the insertion's tree pattern.
func (i Insert) Pattern() *pattern.Pattern { return i.P }

// Kind returns "insert".
func (i Insert) Kind() string { return "insert" }

// Apply follows the paper's semantics: for every insertion point
// n ∈ [[p]](t), a fresh clone X_i of X (disjoint node identities) is added
// as a child of n. If [[p]](t) is empty, the result shares all of t.
func (i Insert) Apply(t *xmltree.Tree) (*xmltree.Tree, []*xmltree.Node, error) {
	at := match.EvalPaths(i.P, t)
	return t.Inserted(at, i.X), at.Points(), nil
}

// Delete is DELETE_p: evaluate p on t and delete the subtree rooted at
// every node in the result. The paper requires Ø(p) ≠ ROOT(p) so that the
// result remains a tree.
type Delete struct {
	P *pattern.Pattern
}

// Pattern returns the deletion's tree pattern.
func (d Delete) Pattern() *pattern.Pattern { return d.P }

// Kind returns "delete".
func (d Delete) Kind() string { return "delete" }

// Validate checks the well-formedness requirement Ø(p) ≠ ROOT(p).
func (d Delete) Validate() error {
	if d.P.Output() == d.P.Root() {
		return fmt.Errorf("ops: delete pattern selects the root (Ø(p) = ROOT(p)); the result would not be a tree")
	}
	return nil
}

// Apply removes every subtree rooted at a deletion point. Deletion points
// nested below other deletion points vanish with their ancestors.
func (d Delete) Apply(t *xmltree.Tree) (*xmltree.Tree, []*xmltree.Node, error) {
	if err := d.Validate(); err != nil {
		return nil, nil, err
	}
	at := match.EvalPaths(d.P, t)
	nt, err := t.Deleted(at)
	if err != nil {
		return nil, nil, err
	}
	return nt, at.Points(), nil
}

// ApplyCopy returns the version of t the update produces; t itself is
// untouched. Freshly inserted nodes draw identities unused by t, so node
// identity comparisons between t and the result are meaningful
// (Definition 2).
func ApplyCopy(u Update, t *xmltree.Tree) (*xmltree.Tree, error) {
	nt, _, err := u.Apply(t)
	return nt, err
}

// NodeConflictWitness reports whether t witnesses a node conflict between
// the read r and the update u (Definitions 3-4): R(u(t)) ≠ R(t) as node
// sets. Per Lemma 1, the check runs in polynomial time.
func NodeConflictWitness(r Read, u Update, t *xmltree.Tree) (bool, error) {
	after, err := ApplyCopy(u, t)
	if err != nil {
		return false, err
	}
	return !xmltree.SameNodeSet(r.Eval(t), r.Eval(after)), nil
}

// TreeConflictWitness reports whether t witnesses a tree conflict between r
// and u: either the node sets differ, or some returned subtree was
// modified by the update. Apply copies exactly the modified nodes, so
// the check compares the two results by pointer and is linear in |t|
// (Lemma 1).
func TreeConflictWitness(r Read, u Update, t *xmltree.Tree) (bool, error) {
	after, err := ApplyCopy(u, t)
	if err != nil {
		return false, err
	}
	return treeFired(r.Eval(t), r.Eval(after)), nil
}

// treeFired reports a tree conflict between R(t) and R(u(t)), both in
// identity order: a result node that is not t's node is missing, fresh,
// or a copy Apply made because its subtree changed.
func treeFired(before, res []*xmltree.Node) bool {
	return !slices.Equal(before, res)
}

// ValueConflictWitness reports whether t witnesses a value conflict between
// r and u (Definitions 5-6): the sets of isomorphism classes of
// [[p]]_T(u(t)) and [[p]]_T(t) differ.
func ValueConflictWitness(r Read, u Update, t *xmltree.Tree) (bool, error) {
	after, err := ApplyCopy(u, t)
	if err != nil {
		return false, err
	}
	return !xmltree.SameIsoClasses(r.Eval(t), r.Eval(after)), nil
}

// FiredSemantics reports which of the three conflict notions the tree t
// witnesses between r and u, in declaration order (node, tree, value).
// One update application serves all three comparisons, so the check
// costs the same as a single witness check plus the set comparisons.
// The durable store uses it to tell a rejected client exactly which
// semantics its read admission failed under.
func FiredSemantics(r Read, u Update, t *xmltree.Tree) ([]Semantics, error) {
	after, err := ApplyCopy(u, t)
	if err != nil {
		return nil, err
	}
	before := r.Eval(t)
	res := r.Eval(after)
	var fired []Semantics
	if !xmltree.SameNodeSet(before, res) {
		fired = append(fired, NodeSemantics)
	}
	if treeFired(before, res) {
		fired = append(fired, TreeSemantics)
	}
	if !xmltree.SameIsoClasses(before, res) {
		fired = append(fired, ValueSemantics)
	}
	return fired, nil
}

// ConflictWitness dispatches on the conflict semantics.
func ConflictWitness(sem Semantics, r Read, u Update, t *xmltree.Tree) (bool, error) {
	switch sem {
	case NodeSemantics:
		return NodeConflictWitness(r, u, t)
	case TreeSemantics:
		return TreeConflictWitness(r, u, t)
	case ValueSemantics:
		return ValueConflictWitness(r, u, t)
	default:
		return false, fmt.Errorf("ops: unknown conflict semantics %d", sem)
	}
}

// Semantics selects one of the paper's three conflict notions.
type Semantics int

const (
	// NodeSemantics compares result node sets by identity (Definitions 3-4,
	// first parts). This is the paper's default.
	NodeSemantics Semantics = iota
	// TreeSemantics additionally requires returned subtrees unmodified
	// (Definitions 3-4, second parts).
	TreeSemantics
	// ValueSemantics compares results up to tree isomorphism
	// (Definitions 5-6).
	ValueSemantics
)

// String names the semantics ("node", "tree", or "value").
func (s Semantics) String() string {
	switch s {
	case NodeSemantics:
		return "node"
	case TreeSemantics:
		return "tree"
	case ValueSemantics:
		return "value"
	default:
		return fmt.Sprintf("Semantics(%d)", int(s))
	}
}

// CommuteWitness reports whether applying u1 then u2 to t yields a tree
// that is not isomorphic to applying u2 then u1. It realizes the informal
// Section 6 definition of conflicts between two updates under value-based
// semantics, where the fresh-clone identity problem of the reference
// semantics disappears.
//
// Both orders derive from t through Apply, which copies only the root
// paths of its points, so xmltree.IsomorphicDerived compares only what
// the two orders changed: a node both results share is t's, unchanged on
// both sides. Nodes the updates insert draw identities from t's next
// identity in both orders, so equal fresh identities name unrelated
// nodes and are compared by value, never cancelled.
func CommuteWitness(u1, u2 Update, t *xmltree.Tree) (bool, error) {
	a, err := applyBoth(u1, u2, t)
	if err != nil {
		return false, err
	}
	b, err := applyBoth(u2, u1, t)
	if err != nil {
		return false, err
	}
	return !xmltree.IsomorphicDerived(t, a, b), nil
}

// applyBoth returns u2(u1(t)).
func applyBoth(u1, u2 Update, t *xmltree.Tree) (*xmltree.Tree, error) {
	a, err := ApplyCopy(u1, t)
	if err != nil {
		return nil, err
	}
	return ApplyCopy(u2, a)
}
