// Package ops implements the read, insertion, and deletion operations of
// Section 3 of "Conflicting XML Updates" with the reference-based
// (mutating) semantics of XQuery updates and XJ, together with the
// polynomial-time witness checkers of Lemma 1 for all three conflict
// semantics (node, tree, value).
package ops

import (
	"fmt"

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

// Update is an operation that modifies a tree in place: INSERT or DELETE.
type Update interface {
	// Apply mutates t, marks every change point and its ancestors
	// modified (Tree.MarkModified), and returns the insertion/deletion
	// points ([[p]](t) evaluated before mutation). The tree-conflict
	// checks and CommuteWitness are exact only under this marking.
	Apply(t *xmltree.Tree) ([]*xmltree.Node, error)
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

// Apply mutates t per the paper's semantics: for every insertion point
// n ∈ [[p]](t), a fresh clone X_i of X (disjoint node identities) is added
// as a child of n. It returns the insertion points. If [[p]](t) is empty,
// t is unchanged.
func (i Insert) Apply(t *xmltree.Tree) ([]*xmltree.Node, error) {
	points := match.Eval(i.P, t)
	return points, i.ApplyAt(t, points)
}

// ApplyAt performs the insertion at precomputed insertion points (an
// already-evaluated [[p]](t)), for callers that amortize pattern
// evaluation (the compiled-evaluator witness Checker).
func (i Insert) ApplyAt(t *xmltree.Tree, points []*xmltree.Node) error {
	for _, n := range points {
		t.Graft(n, i.X)
		t.MarkModified(n)
	}
	return nil
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

// Apply mutates t: every subtree rooted at a deletion point is removed.
// Deletion points nested below other deletion points vanish with their
// ancestors. It returns the deletion points.
func (d Delete) Apply(t *xmltree.Tree) ([]*xmltree.Node, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	points := match.Eval(d.P, t)
	return points, d.ApplyAt(t, points)
}

// ApplyAt performs the deletion at precomputed deletion points (an
// already-evaluated [[p]](t)), for callers that amortize pattern
// evaluation. It does not re-run Validate.
func (d Delete) ApplyAt(t *xmltree.Tree, points []*xmltree.Node) error {
	for _, n := range points {
		if !t.Contains(n) {
			continue // already removed with a deleted ancestor
		}
		parent := n.Parent()
		if err := t.DeleteSubtree(n); err != nil {
			return err
		}
		t.MarkModified(parent)
	}
	return nil
}

// ApplyCopy runs the update on an identity-preserving clone of t and
// returns the clone; t itself is untouched. Freshly inserted nodes draw
// identities unused by t, so node identity comparisons between t and the
// result are meaningful (Definition 2).
func ApplyCopy(u Update, t *xmltree.Tree) (*xmltree.Tree, error) {
	c := t.Clone()
	c.ClearModified()
	if _, err := u.Apply(c); err != nil {
		return nil, err
	}
	return c, nil
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
// modified by the update. The subtree-modified flags maintained by Apply
// make the check linear in |t| (Lemma 1).
func TreeConflictWitness(r Read, u Update, t *xmltree.Tree) (bool, error) {
	after, err := ApplyCopy(u, t)
	if err != nil {
		return false, err
	}
	before := r.Eval(t)
	res := r.Eval(after)
	if !xmltree.SameNodeSet(before, res) {
		return true, nil
	}
	for _, n := range res {
		if n.Modified() {
			return true, nil
		}
	}
	return false, nil
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
	sameNodes := xmltree.SameNodeSet(before, res)
	if !sameNodes {
		fired = append(fired, NodeSemantics)
	}
	treeFired := !sameNodes
	if !treeFired {
		for _, n := range res {
			if n.Modified() {
				treeFired = true
				break
			}
		}
	}
	if treeFired {
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

// CommuteWitness reports whether applying u1 then u2 to (clones of) t
// yields a tree that is not isomorphic to applying u2 then u1. It realizes
// the informal Section 6 definition of conflicts between two updates under
// value-based semantics, where the fresh-clone identity problem of the
// reference semantics disappears.
//
// Both orders start from a clone of t and change it only through Apply,
// which marks every change point and its ancestors modified (the Update
// contract), so xmltree.IsomorphicDerived compares only what the two
// orders changed: an unmodified node with one of t's identities is the
// same subtree on both sides. Nodes the updates insert draw identities
// from t's next identity in both orders, so equal fresh identities name
// unrelated nodes and are compared by value, never cancelled.
func CommuteWitness(u1, u2 Update, t *xmltree.Tree) (bool, error) {
	a, err := ApplyCopy(u1, t)
	if err != nil {
		return false, err
	}
	if _, err := u2.Apply(a); err != nil {
		return false, err
	}
	b, err := ApplyCopy(u2, t)
	if err != nil {
		return false, err
	}
	if _, err := u1.Apply(b); err != nil {
		return false, err
	}
	return !xmltree.IsomorphicDerived(t, a, b), nil
}
