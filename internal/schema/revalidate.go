package schema

import (
	"fmt"

	"xmlconflict/internal/ops"
	"xmlconflict/internal/xmltree"
)

// This file implements incremental revalidation after an update — the
// problem of the paper's reference [14] (Raghavachari & Shmueli,
// "Efficient schema-based revalidation of XML", EDBT 2004). For the
// unordered multiplicity schemas used here, validity is a local property:
// an update can only break (a) the content constraint of the nodes that
// gained or lost a child, and (b) the internal validity of freshly
// inserted subtrees. Revalidating after an update therefore costs time
// proportional to the changed region, not the document.

// RevalidateInsert checks that t remains valid after an Insert produced
// the given insertion points, assuming t was valid before the update ran.
// It re-checks only each point's child counts and the inserted payload
// (validated once — all clones are isomorphic). It returns nil when the
// updated document is valid.
func (s *Schema) RevalidateInsert(t *xmltree.Tree, ins ops.Insert, points []*xmltree.Node) error {
	if len(points) == 0 {
		return nil
	}
	// The payload's internal validity: every node of X must be declared
	// and internally consistent. Its root's label must also be admitted
	// as a child of each insertion point, which the content re-check
	// below covers via the counts.
	s.metrics.Add("schema.revalidate.insert_points", int64(len(points)))
	s.metrics.Add("schema.revalidate.payload_nodes", int64(ins.X.Size()))
	if err := s.validateSubtree(ins.X.Root()); err != nil {
		return fmt.Errorf("schema: inserted payload: %w", err)
	}
	for _, n := range points {
		if err := s.checkContent(n); err != nil {
			return err
		}
	}
	return nil
}

// RevalidateDelete checks that t remains valid after a Delete removed
// subtrees whose parents are given, as nodes of t, assuming t was valid
// before. Only the parents' content constraints can be affected. Parents
// that were themselves deleted (nested deletion points) are not nodes of
// t and are left out by the caller.
func (s *Schema) RevalidateDelete(t *xmltree.Tree, parents []*xmltree.Node) error {
	s.metrics.Add("schema.revalidate.delete_parents", int64(len(parents)))
	for _, p := range parents {
		if err := s.checkContent(p); err != nil {
			return err
		}
	}
	return nil
}

// checkContent re-checks one node's child-multiplicity constraints.
func (s *Schema) checkContent(n *xmltree.Node) error {
	s.metrics.Add("schema.revalidate.content_checks", 1)
	decl, ok := s.Elems[n.Label()]
	if !ok {
		return fmt.Errorf("schema: undeclared element %q", n.Label())
	}
	counts := map[string]int{}
	for _, c := range n.Children() {
		counts[c.Label()]++
	}
	ruled := map[string]bool{}
	for _, r := range decl.Children {
		ruled[r.Label] = true
		got := counts[r.Label]
		if got < r.Min {
			return fmt.Errorf("schema: element %q has %d %q children, needs at least %d", n.Label(), got, r.Label, r.Min)
		}
		if r.Max >= 0 && got > r.Max {
			return fmt.Errorf("schema: element %q has %d %q children, allows at most %d", n.Label(), got, r.Label, r.Max)
		}
	}
	if !decl.Open {
		for l := range counts {
			if !ruled[l] {
				return fmt.Errorf("schema: element %q does not allow %q children", n.Label(), l)
			}
		}
	}
	return nil
}

// validateSubtree checks a detached subtree's internal validity (its root
// need not be an allowed document root).
func (s *Schema) validateSubtree(n *xmltree.Node) error {
	if err := s.checkContent(n); err != nil {
		return err
	}
	for _, c := range n.Children() {
		if err := s.validateSubtree(c); err != nil {
			return err
		}
	}
	return nil
}

// ApplyValidated applies the update to t only if the result stays valid:
// it derives the updated version, revalidates incrementally, and returns
// the updated document or an error describing the violation (t is never
// modified). This is the transactional pattern the revalidation line of
// work supports.
func (s *Schema) ApplyValidated(t *xmltree.Tree, u ops.Update) (*xmltree.Tree, error) {
	if err := s.Validate(t); err != nil {
		return nil, fmt.Errorf("schema: input document invalid: %w", err)
	}
	var ins ops.Insert
	isInsert := true
	switch v := u.(type) {
	case ops.Insert:
		ins = v
	case *ops.Insert:
		ins = *v
	case ops.Delete, *ops.Delete:
		isInsert = false
	default:
		return nil, fmt.Errorf("schema: unsupported update kind %q", u.Kind())
	}
	after, points, err := u.Apply(t)
	if err != nil {
		return nil, err
	}
	// The points are nodes of t, and the checks read their versions in
	// after: an insert's points gained a child, a delete's points'
	// parents lost one. A parent that was itself deleted is not in after.
	changed := map[int]bool{}
	var parents map[*xmltree.Node]*xmltree.Node
	if !isInsert {
		parents = t.Parents()
	}
	for _, p := range points {
		if !isInsert {
			p = parents[p]
		}
		changed[p.ID()] = true
	}
	var nodes []*xmltree.Node
	after.Walk(func(n *xmltree.Node) bool {
		if changed[n.ID()] {
			nodes = append(nodes, n)
		}
		return true
	})
	if isInsert {
		err = s.RevalidateInsert(after, ins, nodes)
	} else {
		err = s.RevalidateDelete(after, nodes)
	}
	if err != nil {
		return nil, err
	}
	return after, nil
}
