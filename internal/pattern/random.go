package pattern

import "math/rand"

// RandomConfig controls random pattern generation; generation is
// deterministic given the rand source.
type RandomConfig struct {
	// Size is the number of pattern nodes (at least 1).
	Size int
	// Labels is the non-wildcard alphabet to draw from.
	Labels []string
	// PWildcard is the probability that a node is labeled *.
	PWildcard float64
	// PDescendant is the probability that an edge is a descendant edge.
	PDescendant float64
	// PBranch is the probability that a new node attaches to a random
	// existing node instead of extending the current spine tip; 0 yields a
	// linear pattern in P^{//,*}.
	PBranch float64
}

// Random generates a random pattern. The output node is the tip of the
// spine built by non-branching steps, so with PBranch == 0 the result is a
// linear pattern with the output at the leaf.
func Random(rng *rand.Rand, cfg RandomConfig) *Pattern {
	if cfg.Size < 1 {
		cfg.Size = 1
	}
	if len(cfg.Labels) == 0 {
		cfg.Labels = []string{"a"}
	}
	lbl := func() string {
		if rng.Float64() < cfg.PWildcard {
			return Wildcard
		}
		return cfg.Labels[rng.Intn(len(cfg.Labels))]
	}
	axis := func() Axis {
		if rng.Float64() < cfg.PDescendant {
			return Descendant
		}
		return Child
	}
	p := New(lbl())
	tip := p.root
	all := []*Node{p.root}
	for len(all) < cfg.Size {
		if rng.Float64() < cfg.PBranch {
			parent := all[rng.Intn(len(all))]
			all = append(all, p.AddChild(parent, axis(), lbl()))
		} else {
			tip = p.AddChild(tip, axis(), lbl())
			all = append(all, tip)
		}
	}
	p.SetOutput(tip)
	return p
}

// RandomLinear generates a random linear pattern in P^{//,*}.
func RandomLinear(rng *rand.Rand, size int, labels []string, pWildcard, pDescendant float64) *Pattern {
	return Random(rng, RandomConfig{
		Size:        size,
		Labels:      labels,
		PWildcard:   pWildcard,
		PDescendant: pDescendant,
	})
}
