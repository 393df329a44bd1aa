package main

// Seeded input generation. Every input of a run — the detect-mix pair
// population and program pool, the documents, and each client's
// operation stream — derives from the --seed argument alone, so one
// seed always replays the same inputs. The generators here are the
// benchmark's own: they build XPath and XML strings without calling the
// program, so a change to the program never changes what it is fed.

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strings"
)

// clients is the number of closed-loop clients, one per core of the
// two-core host the benchmark is sized for.
const clients = 2

// newRNG derives an independent deterministic source for one named input
// of one workload: the population, a document, or client i's stream.
func newRNG(seed int64, workload, input string, i int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%s/%d", seed, workload, input, i)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// zipf samples ranks 0..n-1 with probability proportional to 1/(r+1)^s.
type zipf struct{ cum []float64 }

func newZipf(n int, s float64) zipf {
	z := zipf{cum: make([]float64, n)}
	total := 0.0
	for r := 0; r < n; r++ {
		total += 1 / math.Pow(float64(r+1), s)
		z.cum[r] = total
	}
	return z
}

func (z zipf) draw(rng *rand.Rand) int {
	u := rng.Float64() * z.cum[len(z.cum)-1]
	return sort.SearchFloat64s(z.cum, u)
}

// ---------------------------------------------------------------------
// Tree patterns, rendered in the XPath fragment the program parses.

// pnode is one node of a generated tree pattern.
type pnode struct {
	label string
	desc  bool // the edge from the parent is a descendant edge
	kids  []*pnode
}

// xpat is a generated tree pattern: the spine runs from the root to the
// output node, every other subtree is a predicate.
type xpat struct {
	spine []*pnode
	nodes []*pnode
}

// randPattern grows a pattern of the given size like the paper's random
// families: each new node either extends the spine or, with probability
// pBranch, hangs off a random existing node as a predicate.
func randPattern(rng *rand.Rand, size int, labels []string, pWild, pDesc, pBranch float64) *xpat {
	label := func() string {
		if rng.Float64() < pWild {
			return "*"
		}
		return labels[rng.Intn(len(labels))]
	}
	root := &pnode{label: label()}
	p := &xpat{spine: []*pnode{root}, nodes: []*pnode{root}}
	for len(p.nodes) < size {
		n := &pnode{label: label(), desc: rng.Float64() < pDesc}
		if rng.Float64() < pBranch {
			parent := p.nodes[rng.Intn(len(p.nodes))]
			parent.kids = append(parent.kids, n)
		} else {
			tip := p.spine[len(p.spine)-1]
			tip.kids = append(tip.kids, n)
			p.spine = append(p.spine, n)
		}
		p.nodes = append(p.nodes, n)
	}
	return p
}

func (p *xpat) size() int { return len(p.nodes) }

func (p *xpat) linear() bool { return len(p.nodes) == len(p.spine) }

// starLength is STAR-LENGTH of the pattern: the longest run of child
// edges whose nodes are all wildcards (the k of the Lemma 11 bound).
func (p *xpat) starLength() int {
	best := 0
	var walk func(n *pnode, run int)
	walk = func(n *pnode, run int) {
		if n.label == "*" {
			run++
		} else {
			run = 0
		}
		best = max(best, run)
		for _, c := range n.kids {
			if c.desc {
				walk(c, 0)
			} else {
				walk(c, run)
			}
		}
	}
	walk(p.nodes[0], 0)
	return best
}

func (p *xpat) addLabels(set map[string]bool) {
	for _, n := range p.nodes {
		if n.label != "*" {
			set[n.label] = true
		}
	}
}

// String renders the pattern: spine steps, each carrying its off-spine
// subtrees as sorted predicates, so equal patterns render equally.
func (p *xpat) String() string {
	var b strings.Builder
	for i, n := range p.spine {
		switch {
		case i == 0:
			b.WriteString("/")
		case n.desc:
			b.WriteString("//")
		default:
			b.WriteString("/")
		}
		b.WriteString(n.label)
		var next *pnode
		if i+1 < len(p.spine) {
			next = p.spine[i+1]
		}
		b.WriteString(predicates(n, next))
	}
	return b.String()
}

func predicates(n, skip *pnode) string {
	var preds []string
	for _, c := range n.kids {
		if c == skip {
			continue
		}
		axis := ""
		if c.desc {
			axis = ".//"
		}
		preds = append(preds, "["+axis+c.label+predicates(c, nil)+"]")
	}
	sort.Strings(preds)
	return strings.Join(preds, "")
}

// treesUpTo counts the unordered labeled trees of at most n nodes over
// an alphabet of L labels — the witness search space of a pair — by the
// Euler-transform recurrence, saturating at limit.
func treesUpTo(L, n int, limit int64) int64 {
	a := make([]float64, n+1) // trees of exactly k nodes
	f := make([]float64, n+1) // forests of total size k
	f[0] = 1
	total := 0.0
	for k := 1; k <= n; k++ {
		a[k] = float64(L) * f[k-1]
		total += a[k]
		if total >= float64(limit) {
			return limit
		}
		// f[k] = (1/k) Σ_{j=1..k} c(j)·f[k-j], c(j) = Σ_{d|j} d·a[d].
		sum := 0.0
		for j := 1; j <= k; j++ {
			c := 0.0
			for d := 1; d <= j; d++ {
				if j%d == 0 {
					c += float64(d) * a[d]
				}
			}
			sum += c * f[k-j]
		}
		f[k] = sum / float64(k)
	}
	return int64(total)
}

// ---------------------------------------------------------------------
// detect-mix inputs.

// Pair classes of the detect-mix population.
const (
	classLinear    = iota // linear read: the Section 4 polynomial decision
	classBranching        // branching read, small witness space: a complete search
	classCapped           // branching read that stops at the candidate cap
	numClasses
)

var classNames = [numClasses]string{"linear", "branching", "capped"}

// Population sizes: 16 384 distinct pairs, four times the verdict
// cache's default capacity of 4 096, so popular pairs fit in the cache
// and the tail does not.
const (
	populationSize  = 16384
	branchingPairs  = 512
	cappedPairs     = 8
	linearPairs     = populationSize - branchingPairs - cappedPairs
	programPool     = 10      // two programs of each size, 6-10 statements
	detectMaxNodes  = 8       // /v1/detect's default max_nodes
	detectMaxCand   = 100_000 // /v1/detect's default max_candidates
	branchingSpace  = 3000    // largest witness space a "branching" pair may have
	warmBranching   = 64      // popular branching pairs asked during set-up
	askBlock        = 40      // asks per stream block: 36 linear, 3 branching, 1 capped
	analyzePerBlock = 2       // program analyses per block, ~5% of operations
)

// blockShape fixes how many asks of each class a block holds, so every
// run of every seed sees the same class shares.
var blockShape = [numClasses]int{36, 3, 1}

var (
	pairLabels = []string{"a", "b", "c", "d", "e"}
	fragments  = []string{"<a/>", "<b><c/></b>", "<d/>", "<c><a/></c>", "<e><d/><b/></e>"}
	// Branching pairs draw from three labels, which keeps their witness
	// spaces small enough to search completely.
	branchLabels    = []string{"a", "b", "c"}
	branchFragments = []string{"<a/>", "<b><c/></b>", "<c><a/></c>"}
)

// pair is one /v1/detect request body: read plus exactly one of
// insert (with x) or delete.
type pair struct {
	Read, Insert, X, Delete string
	Class                   int
}

// classSizes counts the population by class name.
func (in *detectInputs) classSizes() map[string]int {
	sizes := map[string]int{}
	for c, idxs := range in.byClass {
		sizes[classNames[c]] = len(idxs)
	}
	return sizes
}

func (p pair) key() string { return p.Read + "\x00" + p.Insert + "\x00" + p.X + "\x00" + p.Delete }

// detectInputs is the whole input of a detect-mix run.
type detectInputs struct {
	pairs    []pair // the population, class by class, each in rank order
	byClass  [numClasses][]int
	programs []string
	streams  [clients][]askOp
}

// askOp is one operation of a detect-mix client: a pair ask
// (program < 0) or a program analysis.
type askOp struct {
	pair    int32
	program int32
}

func genDetect(seed int64, streamBlocks int) *detectInputs {
	in := &detectInputs{}
	rng := newRNG(seed, "detect-mix", "population", 0)
	seen := map[string]bool{}
	add := func(p pair) bool {
		if seen[p.key()] {
			return false
		}
		seen[p.key()] = true
		in.byClass[p.Class] = append(in.byClass[p.Class], len(in.pairs))
		in.pairs = append(in.pairs, p)
		return true
	}
	for len(in.byClass[classLinear]) < linearPairs {
		add(linearPair(rng, len(in.byClass[classLinear])))
	}
	for len(in.byClass[classBranching]) < branchingPairs {
		if p, ok := branchingPair(rng); ok {
			add(p)
		}
	}
	for len(in.byClass[classCapped]) < cappedPairs {
		add(cappedPair(rng, len(in.byClass[classCapped])))
	}
	perm := append([]string(nil), pairLabels...)
	newRNG(seed, "detect-mix", "programs", 0).Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	for i := 0; i < programPool; i++ {
		in.programs = append(in.programs, genProgram(i, perm))
	}
	var zipfs [numClasses]zipf
	for c := range zipfs {
		zipfs[c] = newZipf(len(in.byClass[c]), 1.0)
	}
	for c := 0; c < clients; c++ {
		srng := newRNG(seed, "detect-mix", "stream", c)
		ops := make([]askOp, 0, streamBlocks*(askBlock+analyzePerBlock))
		for b := 0; b < streamBlocks; b++ {
			block := make([]askOp, 0, askBlock+analyzePerBlock)
			for class, n := range blockShape {
				for k := 0; k < n; k++ {
					idx := in.byClass[class][zipfs[class].draw(srng)]
					block = append(block, askOp{pair: int32(idx), program: -1})
				}
			}
			for k := 0; k < analyzePerBlock; k++ {
				block = append(block, askOp{pair: -1, program: int32(srng.Intn(programPool))})
			}
			srng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
			ops = append(ops, block...)
		}
		in.streams[c] = ops
	}
	return in
}

// updateFor draws an insert (with fragment x) or, when x is empty, a
// delete of the given pattern size, and returns its pattern too.
func updateFor(rng *rand.Rand, p pair, size int, labels []string, pBranch float64, x string) (pair, *xpat) {
	if x != "" {
		u := randPattern(rng, size, labels, 0.2, 0.35, pBranch)
		p.Insert, p.X = u.String(), x
		return p, u
	}
	// A delete must not select the root: its spine needs two steps.
	for {
		u := randPattern(rng, max(size, 2), labels, 0.2, 0.35, pBranch)
		if len(u.spine) >= 2 {
			p.Delete = u.String()
			return p, u
		}
	}
}

// alphabetSize is the witness search alphabet of a pair: the labels of
// both patterns and of the inserted fragment, plus one fresh label.
func alphabetSize(r, u *xpat, x string) int {
	set := map[string]bool{}
	r.addLabels(set)
	u.addLabels(set)
	for _, tag := range strings.Split(x, "<")[1:] {
		if tag != "" && tag[0] != '/' {
			set[strings.TrimRight(tag, "/>")] = true
		}
	}
	return len(set) + 1
}

// linearPair draws the pair of popularity rank rank. Its read and
// update sizes, update kind and fragment cycle with the rank, so the
// popular pairs of every seed mix the same shapes and a run's typical
// ask costs the same whatever the seed.
func linearPair(rng *rand.Rand, rank int) pair {
	r := randPattern(rng, 2+rank%4, pairLabels, 0.2, 0.35, 0)
	x := ""
	if (rank/12)%2 == 0 {
		x = fragments[(rank/24)%len(fragments)]
	}
	p, _ := updateFor(rng, pair{Read: r.String(), Class: classLinear}, 1+(rank/4)%3, pairLabels, 0.3, x)
	return p
}

// branchingPair draws a branching read whose whole bounded witness space
// (trees up to min(Lemma 11 bound, max_nodes) nodes) has at most
// branchingSpace trees, so its search always completes, found or not.
func branchingPair(rng *rand.Rand) (pair, bool) {
	r := randPattern(rng, 3+rng.Intn(2), branchLabels, 0.2, 0.35, 0.5)
	if r.linear() {
		return pair{}, false
	}
	x := ""
	if rng.Intn(2) == 0 {
		x = branchFragments[rng.Intn(len(branchFragments))]
	}
	p, u := updateFor(rng, pair{Read: r.String(), Class: classBranching}, 1+rng.Intn(2), branchLabels, 0, x)
	bound := min(r.size()*u.size()*(r.starLength()+1), detectMaxNodes)
	return p, treesUpTo(alphabetSize(r, u, p.X), bound, branchingSpace+1) <= branchingSpace
}

// cappedPair draws the capped pair of the given index: the read
// /A[B]/C//D and the update /E/X, over a random permutation of five
// labels (X one of A-D). The patterns are rooted at different labels,
// so the update never applies to a document the read selects from and
// no witness exists; with distinct labels nothing minimizes away, the
// Lemma 11 bound |R|·|U| = 8 reaches the node cap, and the witness space
// far exceeds the candidate cap. Every search of such a pair examines
// exactly max_candidates trees of one shape and stops incomplete, so
// every capped pair costs about the same. Inserts and deletes alternate
// by index.
func cappedPair(rng *rand.Rand, index int) pair {
	l := append([]string(nil), pairLabels...)
	rng.Shuffle(len(l), func(i, j int) { l[i], l[j] = l[j], l[i] })
	p := pair{Read: fmt.Sprintf("/%s[%s]/%s//%s", l[0], l[1], l[2], l[3]), Class: classCapped}
	u := fmt.Sprintf("/%s/%s", l[4], l[rng.Intn(4)])
	if index%2 == 0 {
		p.Insert, p.X = u, fragments[(index/2)%len(fragments)]
	} else {
		p.Delete = u
	}
	return p
}

// programKinds is the statement rotation of the pooled programs: four
// reads, three inserts and three deletes in every ten statements.
var programKinds = []string{"read", "insert", "read", "delete", "insert", "read", "delete", "read", "insert", "delete"}

// genProgram draws pooled program i: a document statement and 5-9
// linear reads, inserts and deletes, the shape /v1/analyze serves. The
// program's structure comes from i alone and the seed only renames its
// labels (labels is a permutation of pairLabels): renaming preserves
// every dependence verdict, so every seed's pool costs the same to
// analyze while its requests differ.
func genProgram(i int, labels []string) string {
	rng := rand.New(rand.NewSource(int64(i)))
	rename := func(s string) string {
		return strings.Map(func(r rune) rune {
			if k := strings.IndexRune("abcde", r); k >= 0 {
				return rune(labels[k][0])
			}
			return r
		}, s)
	}
	var b strings.Builder
	b.WriteString("x = doc " + rename("<r><a><b/></a><c/><d><e/></d></r>") + "\n")
	for j := 0; j < 5+i%5; j++ {
		// $x stands for the document root; every path has at least one
		// step below it, so deletes never select the root.
		path := randPattern(rng, 2+(i+j)%3, labels, 0.15, 0.3, 0).String()
		path = path[strings.IndexByte(path[1:], '/')+1:]
		switch programKinds[(i+j)%len(programKinds)] {
		case "read":
			fmt.Fprintf(&b, "r%d = read $x%s\n", j, path)
		case "insert":
			fmt.Fprintf(&b, "insert $x%s, %s\n", path, rename(fragments[(i+j)%len(fragments)]))
		default:
			fmt.Fprintf(&b, "delete $x%s\n", path)
		}
	}
	return b.String()
}

// ---------------------------------------------------------------------
// docs-large and docs-small inputs.

// Document operation kinds.
const (
	opInsert     = iota // insert a <n> entry under a hot slot
	opDelete            // delete the <n> entries of a hot slot
	opRead              // read a hot slot's <n> entries (stale base) or the slot (plain)
	opGet               // whole-document Get
	opCreate            // lifecycle: create a private document
	opLifeInsert        // lifecycle: base-0 insert into it
	opDrop              // lifecycle: drop it
	numOpKinds
)

var opKindNames = [numOpKinds]string{"insert", "delete", "read", "get", "create", "life-insert", "drop"}

// docOp is one operation of a docs-* client. lag 0 submits with base
// LSN 0 (no admission check); lag k in 1..4 submits against the LSN the
// document had k acknowledged commits ago.
type docOp struct {
	kind uint8
	lag  uint8
	slot uint8
	doc  uint32 // shared document, or the client's lifecycle name index
}

// docsShape fixes a docs workload's sizes.
type docsShape struct {
	name        string
	docs        int // shared documents
	sections    int
	slots       int // slots per section
	minItems    int // <item><v/></item> entries per slot
	maxItems    int
	hotSlots    int  // slots per document that operations target
	lifecycle   bool // add a create→insert→drop lifecycle to every block
	streamOps   int  // operations generated per client
	lifeNames   int  // distinct lifecycle names per client
	prefix      string
	tailPercent float64 // the tail percentile reported for this workload
}

var (
	docsLarge = docsShape{name: "docs-large", docs: 4, sections: 16, slots: 16, minItems: 5, maxItems: 9,
		hotSlots: 7, streamOps: 20_000, prefix: "large", tailPercent: 90}
	docsSmall = docsShape{name: "docs-small", docs: 256, sections: 1, slots: 8, minItems: 2, maxItems: 4,
		hotSlots: 6, lifecycle: true, streamOps: 400_000, lifeNames: 64, prefix: "small", tailPercent: 99}
)

// docsInputs is the whole input of a docs-* run.
type docsInputs struct {
	shape   docsShape
	names   []string   // shared document ids
	xml     []string   // their initial XML
	nodes   []int      // their node counts
	hot     [][]string // per document: hot slot paths /log/sK/bJ
	entries [][]string // per document: the inserted entries of each hot slot, /log/sK/bJ/n
	life    [clients][]string
	streams [clients][]docOp
}

// newEntry is what an insert grafts; deletes and stale reads select it
// by label, so the documents' initial content is never deleted.
const newEntry = "<n><v/></n>"

func genDocs(seed int64, shape docsShape) *docsInputs {
	in := &docsInputs{shape: shape}
	for d := 0; d < shape.docs; d++ {
		rng := newRNG(seed, shape.name, "doc", d)
		var b strings.Builder
		nodes := 1
		b.WriteString("<log>")
		for s := 0; s < shape.sections; s++ {
			fmt.Fprintf(&b, "<s%d>", s)
			nodes++
			for j := 0; j < shape.slots; j++ {
				items := shape.minItems + rng.Intn(shape.maxItems-shape.minItems+1)
				fmt.Fprintf(&b, "<b%d>%s</b%d>", j, strings.Repeat("<item><v/></item>", items), j)
				nodes += 1 + 2*items
			}
			fmt.Fprintf(&b, "</s%d>", s)
		}
		b.WriteString("</log>")
		in.names = append(in.names, fmt.Sprintf("%s-%03d", shape.prefix, d))
		in.xml = append(in.xml, b.String())
		in.nodes = append(in.nodes, nodes)
		var hot, entries []string
		for _, k := range rng.Perm(shape.sections * shape.slots)[:shape.hotSlots] {
			slot := fmt.Sprintf("/log/s%d/b%d", k/shape.slots, k%shape.slots)
			hot, entries = append(hot, slot), append(entries, slot+"/n")
		}
		in.hot, in.entries = append(in.hot, hot), append(in.entries, entries)
	}
	for c := 0; c < clients; c++ {
		for i := 0; i < shape.lifeNames; i++ {
			in.life[c] = append(in.life[c], fmt.Sprintf("%s-c%d-life%02d", shape.prefix, c, i))
		}
		in.streams[c] = docsStream(newRNG(seed, shape.name, "stream", c), shape)
	}
	return in
}

// docsDeck is one block of a docs stream: every block holds exactly
// these operations, shuffled, so the mix does not drift between seeds
// or within a short run. Lags cycle through 1..4 the same way.
var docsDeck = []docOp{
	{kind: opInsert}, {kind: opInsert}, {kind: opInsert}, {kind: opInsert}, // base-0 inserts
	{kind: opInsert, lag: 1}, {kind: opInsert, lag: 1}, {kind: opInsert, lag: 1}, {kind: opInsert, lag: 1},
	{kind: opDelete, lag: 1}, {kind: opDelete, lag: 1}, {kind: opDelete, lag: 1},
	{kind: opRead, lag: 1}, {kind: opRead, lag: 1}, {kind: opRead, lag: 1}, {kind: opRead, lag: 1},
	{kind: opRead}, {kind: opRead}, // plain reads of the whole slot
	{kind: opGet}, {kind: opGet}, {kind: opGet},
}

func docsStream(rng *rand.Rand, shape docsShape) []docOp {
	ops := make([]docOp, 0, shape.streamOps+len(docsDeck)+3)
	var lags []uint8
	life := 0
	for len(ops) < shape.streamOps {
		block := append([]docOp(nil), docsDeck...)
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for i := range block {
			block[i].doc = uint32(rng.Intn(shape.docs))
			block[i].slot = uint8(rng.Intn(shape.hotSlots))
			if block[i].lag > 0 {
				if len(lags) == 0 {
					lags = []uint8{1, 2, 3, 4}
					rng.Shuffle(len(lags), func(i, j int) { lags[i], lags[j] = lags[j], lags[i] })
				}
				block[i].lag, lags = lags[0], lags[1:]
			}
		}
		if shape.lifecycle {
			// One create→insert→drop lifecycle per block, kept in order.
			name := uint32(life % shape.lifeNames)
			life++
			at := rng.Intn(len(block) + 1)
			lc := []docOp{{kind: opCreate, doc: name}, {kind: opLifeInsert, doc: name}, {kind: opDrop, doc: name}}
			block = append(block[:at], append(lc, block[at:]...)...)
		}
		ops = append(ops, block...)
	}
	return ops
}

// bytes returns the total size of the shared documents' XML.
func (in *docsInputs) bytes() int {
	n := 0
	for _, x := range in.xml {
		n += len(x)
	}
	return n
}

// nodeCount returns the total node count of the shared documents.
func (in *docsInputs) nodeCount() int {
	n := 0
	for _, k := range in.nodes {
		n += k
	}
	return n
}
