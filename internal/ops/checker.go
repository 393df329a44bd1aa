package ops

import (
	"xmlconflict/internal/match"
	"xmlconflict/internal/telemetry"
	"xmlconflict/internal/xmltree"
)

// Checker answers the Lemma 1 witness question for one fixed
// (semantics, read, update) triple over many candidate trees — the hot
// loop of the bounded witness searches. It gives the same verdicts as
// ConflictWitness (property-tested) but amortizes pattern compilation:
// both patterns are compiled once into match.Evaluators through a
// match.Cache shared across every candidate (and across the search's
// final re-verification), instead of being re-interpreted per tree.
//
// A Checker is safe for concurrent use. Metrics (optional, nil =
// disabled) record checks performed and compiled evaluations served.
type Checker struct {
	sem   Semantics
	r     Read
	u     Update
	cache *match.Cache
	m     *telemetry.Metrics

	// Normalized update: exactly one of ins/del is set for the compiled
	// fast path; fast == false falls back to ConflictWitness (unknown
	// Update implementations).
	ins  *Insert
	del  *Delete
	fast bool
	vErr error // deferred Delete.Validate error, surfaced per check
}

// NewChecker builds a Checker. cache may be nil (a private cache is
// created); pass a shared cache to extend compiled-pattern reuse across
// checkers evaluating the same patterns. m may be nil.
func NewChecker(sem Semantics, r Read, u Update, cache *match.Cache, m *telemetry.Metrics) *Checker {
	if cache == nil {
		cache = match.NewCache()
	}
	c := &Checker{sem: sem, r: r, u: u, cache: cache, m: m}
	switch v := u.(type) {
	case Insert:
		c.ins, c.fast = &v, true
	case *Insert:
		c.ins, c.fast = v, true
	case Delete:
		c.del, c.fast = &v, true
		c.vErr = v.Validate()
	case *Delete:
		c.del, c.fast = v, true
		c.vErr = v.Validate()
	}
	if c.fast {
		// Compile both patterns up front so concurrent Witness calls hit
		// the cache read path only.
		c.cache.Get(r.P)
		c.cache.Get(u.Pattern())
	}
	return c
}

// Witness reports whether t witnesses a conflict between the checker's
// read and update under its semantics; identical to
// ConflictWitness(sem, r, u, t).
func (c *Checker) Witness(t *xmltree.Tree) (bool, error) {
	c.m.Add("witness.checks", 1)
	if !c.fast {
		return ConflictWitness(c.sem, c.r, c.u, t)
	}
	if c.vErr != nil {
		return false, c.vErr
	}
	at := c.cache.Get(c.u.Pattern()).EvalPaths(t)
	var after *xmltree.Tree
	if c.ins != nil {
		after = t.Inserted(at, c.ins.X)
	} else {
		var err error
		if after, err = t.Deleted(at); err != nil {
			return false, err
		}
	}
	evR := c.cache.Get(c.r.P)
	before := evR.Eval(t)
	res := evR.Eval(after)
	c.m.Add("match.compiled_evals", 3)
	switch c.sem {
	case NodeSemantics:
		return !xmltree.SameNodeSet(before, res), nil
	case TreeSemantics:
		return treeFired(before, res), nil
	case ValueSemantics:
		return !xmltree.SameIsoClasses(before, res), nil
	}
	// Unknown semantics: defer to the reference checker's error.
	return ConflictWitness(c.sem, c.r, c.u, t)
}

// CacheCounts returns the compiled-pattern cache's hit and miss counts.
func (c *Checker) CacheCounts() (hits, misses int64) { return c.cache.Counts() }
