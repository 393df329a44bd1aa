package store

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"xmlconflict/internal/core"
	"xmlconflict/internal/ops"
	"xmlconflict/internal/xmltree"
	"xmlconflict/internal/xpath"
)

// referenceAdmit is admission without the static screen: a concrete
// Lemma 1 check on the retained pre-state of every window entry above
// the op's base. It reports whether the op is admitted and, if not,
// the LSN of the entry that rejects it.
func referenceAdmit(t *testing.T, s *Store, id string, op Op) (bool, uint64) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.docs[id]
	var rd ops.Read
	var upd ops.Update
	if op.Kind == "read" {
		p, err := xpath.Parse(op.Pattern)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		rd = ops.Read{P: p}
	} else {
		u, _, err := s.parseUpdate(op)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		upd = u
	}
	for _, e := range d.hist {
		if e.lsn <= op.BaseLSN {
			continue
		}
		var conflict bool
		if upd == nil {
			fired, err := ops.FiredSemantics(rd, e.upd, e.pre)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			conflict = slices.Contains(fired, op.Sem)
		} else {
			nc, err := ops.CommuteWitness(upd, e.upd, e.pre)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			conflict = nc
		}
		if conflict {
			return false, e.lsn
		}
	}
	return true, 0
}

// admitGen draws the differential test's documents and operations
// over a three-letter alphabet, so patterns, payloads and documents
// collide often.
type admitGen struct{ r *rand.Rand }

var admitLabels = []string{"a", "b", "c"}

func (g admitGen) label() string { return admitLabels[g.r.Intn(len(admitLabels))] }

// tree is a random tree of 1 to n nodes, rooted at a (mostly) so that
// rooted patterns match.
func (g admitGen) tree(root string, n int) *xmltree.Tree {
	t := xmltree.New(root)
	for i := g.r.Intn(n); i > 0; i-- {
		nodes := t.Nodes()
		t.AddChild(nodes[g.r.Intn(len(nodes))], g.label())
	}
	return t
}

// pattern is a random pattern of one to three steps, linear unless
// branch, which gives one step a predicate a fifth of the time.
func (g admitGen) pattern(branch bool) string {
	var b strings.Builder
	pred := -1
	n := 1 + g.r.Intn(3)
	if branch && g.r.Intn(5) == 0 {
		pred = g.r.Intn(n)
	}
	for i := 0; i < n; i++ {
		if g.r.Intn(3) == 0 {
			b.WriteString("//")
		} else {
			b.WriteString("/")
		}
		if g.r.Intn(6) == 0 {
			b.WriteString("*")
		} else if i == 0 && g.r.Intn(3) != 0 {
			b.WriteString("a")
		} else {
			b.WriteString(g.label())
		}
		if i == pred {
			fmt.Fprintf(&b, "[%s%s]", []string{"", ".//"}[g.r.Intn(2)], g.label())
		}
	}
	return b.String()
}

// op is a random read, insert or delete; size is the document's node
// count, past which only deletes that trim the root's children are
// drawn.
func (g admitGen) op(size int) Op {
	if size > 40 {
		return Op{Kind: "delete", Pattern: "/*/*"}
	}
	switch k := g.r.Intn(10); {
	case k < 4:
		return Op{Kind: "read", Pattern: g.pattern(false), Sem: ops.Semantics(g.r.Intn(3))}
	case k < 7:
		return Op{Kind: "insert", Pattern: g.pattern(true), X: g.tree(g.label(), 3).XML()}
	default:
		return Op{Kind: "delete", Pattern: g.pattern(true)}
	}
}

// TestAdmitMatchesConcreteReference drives random single-client
// streams of linear reads, inserts and deletes (a few updates branch,
// which the screen answers for reads only) at random stale bases over
// small random documents, under all three read semantics, and
// holds every admission decision — admitted, or a 409 naming the same
// committed LSN — to the concrete-only reference loop over the same
// window. The static screen may only skip entries the concrete check
// would pass.
func TestAdmitMatchesConcreteReference(t *testing.T) {
	type tally struct{ admitted, rejected int }
	seen := map[string]tally{}
	var static, concrete int64
	for seed := int64(1); seed <= 40; seed++ {
		g := admitGen{rand.New(rand.NewSource(seed))}
		s := openTest(t, t.TempDir(), Options{Fsync: FsyncNever})
		root := "a"
		if g.r.Intn(5) == 0 {
			root = g.label()
		}
		lsns := []uint64{mustCreate(t, s, "d", g.tree(root, 6).XML()).LSN}
		for i := 0; i < 40; i++ {
			info, err := s.Get("d")
			if err != nil {
				t.Fatal(err)
			}
			op := g.op(info.Size)
			if op.Kind == "delete" {
				if _, _, err := s.parseUpdate(op); err != nil {
					continue // a pattern that selects the root
				}
			}
			op.BaseLSN = lsns[g.r.Intn(len(lsns))]
			wantOK, wantWith := referenceAdmit(t, s, "d", op)
			res, err := s.Submit("d", op)
			var ce *ConflictError
			switch {
			case err == nil && !wantOK:
				t.Fatalf("seed %d op %d: %+v admitted; the concrete check rejects it at lsn %d", seed, i, op, wantWith)
			case err != nil && !errors.As(err, &ce):
				t.Fatalf("seed %d op %d: %+v: %v", seed, i, op, err)
			case err != nil && wantOK:
				t.Fatalf("seed %d op %d: %+v rejected at lsn %d; the concrete check admits it", seed, i, op, ce.WithLSN)
			case err != nil && ce.WithLSN != wantWith:
				t.Fatalf("seed %d op %d: %+v rejected at lsn %d, want lsn %d", seed, i, op, ce.WithLSN, wantWith)
			}
			if op.BaseLSN < info.LSN {
				key := op.Kind
				if op.Kind == "read" {
					key += "/" + op.Sem.String()
				}
				c := seen[key]
				if err == nil {
					c.admitted++
				} else {
					c.rejected++
				}
				seen[key] = c
			}
			if err == nil && op.Kind != "read" {
				lsns = append(lsns, res.LSN)
				if len(lsns) > s.opts.HistoryWindow {
					lsns = lsns[1:]
				}
			}
		}
		static += s.m.Counter("store.admit_static").Load()
		concrete += s.m.Counter("store.admit_concrete").Load()
	}
	// The streams must reach both outcomes for every kind and read
	// semantics, and both ways of settling an entry, or the comparison
	// proves little.
	for _, key := range []string{"read/node", "read/tree", "read/value", "insert", "delete"} {
		if c := seen[key]; c.admitted == 0 || c.rejected == 0 {
			t.Errorf("%s: stale ops admitted/rejected = %+v, want both", key, c)
		}
	}
	if static == 0 || concrete == 0 {
		t.Errorf("entries settled statically %d, concretely %d: want both", static, concrete)
	}
	t.Logf("outcomes %+v; entries settled statically %d, concretely %d", seen, static, concrete)
}

// TestAdmitStaleInsertAgainstCommittedDelete pins the pair a one-way
// screen gets wrong: delete /a/b cannot move the point of insert /a
// <b/>, but the insert adds a b the delete selects, so the two orders
// differ and the stale insert must be refused.
func TestAdmitStaleInsertAgainstCommittedDelete(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{Fsync: FsyncNever})
	base := mustCreate(t, s, "d", "<a><b/></a>").LSN
	del := mustSubmit(t, s, "d", Op{Kind: "delete", Pattern: "/a/b"})
	_, err := s.Submit("d", Op{Kind: "insert", Pattern: "/a", X: "<b/>", BaseLSN: base})
	var ce *ConflictError
	if !errors.As(err, &ce) || ce.WithLSN != del.LSN {
		t.Fatalf("stale insert /a <b/> over delete /a/b: got %v, want a conflict with lsn %d", err, del.LSN)
	}
}

// TestReadSemanticsOutOfRange: a read whose semantics is none of node,
// tree and value is refused. Admission only rejects a read when the
// requested semantics is among those fired, so an unknown one would
// otherwise admit every stale read.
func TestReadSemanticsOutOfRange(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{Fsync: FsyncNever})
	base := mustCreate(t, s, "d", "<a><b/></a>").LSN
	mustSubmit(t, s, "d", Op{Kind: "insert", Pattern: "/a/b", X: "<c/>"})
	for _, sem := range []ops.Semantics{ops.NodeSemantics, ops.TreeSemantics, ops.ValueSemantics} {
		var ce *ConflictError
		if _, err := s.Submit("d", Op{Kind: "read", Pattern: "/a/b/c", Sem: sem, BaseLSN: base}); !errors.As(err, &ce) {
			t.Fatalf("%s read of /a/b/c across insert /a/b <c/>: got %v, want a conflict", sem, err)
		}
	}
	for _, sem := range []ops.Semantics{-1, 3, 7} {
		for _, b := range []uint64{base, 0} {
			_, err := s.Submit("d", Op{Kind: "read", Pattern: "/a/b/c", Sem: sem, BaseLSN: b})
			var ce *ConflictError
			if err == nil || errors.As(err, &ce) || !strings.Contains(err.Error(), "semantics") {
				t.Fatalf("read with semantics %d at base %d: got %v, want a semantics error", int(sem), b, err)
			}
		}
	}
}

// TestScreenAsksOnlyPTIMEPairs: the screen consults the detector only
// for a linear read or two linear updates, the pairs the paper decides
// in polynomial time, and only within its caps on pattern nodes and on
// text; anything else goes straight to the concrete check without a
// lookup, so no bounded search, and no detection a client's long
// pattern inflates, runs under the store mutex, and the screen's cache
// keeps no large key.
func TestScreenAsksOnlyPTIMEPairs(t *testing.T) {
	mkX := func(kind, pat, x string) ops.Update {
		u, _, err := (&Store{opts: Options{}.withDefaults()}).parseUpdate(Op{Kind: kind, Pattern: pat, X: x})
		if err != nil {
			t.Fatal(err)
		}
		return u
	}
	mk := func(kind, pat string) ops.Update { return mkX(kind, pat, "<y/>") }
	read := func(pat string) *ops.Read { return &ops.Read{P: xpath.MustParse(pat)} }
	long := strings.Repeat("/a", screenMaxNodes+1)
	wide := strings.Repeat("q", screenMaxBytes)
	for _, c := range []struct {
		name       string
		rd         *ops.Read
		upd, other ops.Update
		asks       bool
	}{
		{"branching read", read("/a[b]/c"), nil, mk("insert", "/a"), false},
		{"linear read, branching update", read("/a/c"), nil, mk("insert", "/a[b]"), true},
		{"branching stale update", nil, mk("insert", "/a[b]"), mk("delete", "/a/c"), false},
		{"branching committed update", nil, mk("delete", "/a/c"), mk("insert", "/a[b]"), false},
		{"linear updates", nil, mk("delete", "/a/c"), mk("insert", "/a/b"), true},
		{"largest screened read", read(long[:2*screenMaxNodes]), nil, mk("insert", "/a"), true},
		{"long read", read(long), nil, mk("insert", "/a"), false},
		{"long committed update", read("/a/c"), nil, mk("delete", long), false},
		{"long stale update", nil, mk("delete", long), mk("insert", "/a/b"), false},
		{"read with a long label", read("/a/" + wide), nil, mk("insert", "/a"), false},
		{"committed insert, large payload", read("/a/c"), nil, mkX("insert", "/a", "<"+wide+"/>"), false},
		{"stale insert, large payload", nil, mkX("insert", "/a", "<y>"+strings.Repeat("<z/>", screenMaxBytes/3)+"</y>"), mk("delete", "/a/c"), false},
	} {
		dc := core.NewDetectorCache(0)
		settled(dc, c.rd, ops.TreeSemantics, c.upd, c.other)
		if asked := dc.Len() > 0; asked != c.asks {
			t.Errorf("%s: detector asked = %v, want %v", c.name, asked, c.asks)
		}
	}
}
