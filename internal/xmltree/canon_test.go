package xmltree

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The canonical serialization is data identity: the store records XML()
// bytes in every WAL record and snapshot, and recovery re-verifies each
// Digest(). The golden values below were produced by the comparator-
// sorting writer the one-pass writer replaced; any byte change would make
// existing data directories refuse to open.

// docsShaped builds a document shaped like the docs benchmark's: /log/sK/bJ
// slots holding <item><v/></item> entries, with <n><v/></n> entries grafted
// into some slots afterwards, the way the store's inserts add them (fresh,
// larger identities at the end of a child list).
func docsShaped(sections, slots int) *Tree {
	t := New("log")
	var slotNodes []*Node
	for s := 0; s < sections; s++ {
		sn := t.AddChild(t.Root(), fmt.Sprintf("s%d", s))
		for j := 0; j < slots; j++ {
			bn := t.AddChild(sn, fmt.Sprintf("b%d", j))
			for k := 0; k < 5+(7*s+3*j)%5; k++ {
				t.AddChild(t.AddChild(bn, "item"), "v")
			}
			slotNodes = append(slotNodes, bn)
		}
	}
	entry := MustParse("<n><v/></n>")
	for i, bn := range slotNodes {
		for k := 0; k < i%3; k++ {
			t.Graft(bn, entry)
		}
	}
	return t
}

// escapedLabels builds a tree whose labels need escaping in the AHU code
// ('(', ')', '\') and in XML names, with isomorphic siblings and siblings
// whose codes share prefixes.
func escapedLabels() *Tree {
	t := New(`r(`)
	a := t.AddChild(t.Root(), `a)`)
	t.AddChild(a, `\`)
	t.AddChild(a, `x(y`)
	b := t.AddChild(t.Root(), `a`)
	t.AddChild(b, `(`)
	t.AddChild(b, `a\)`)
	t.AddChild(t.Root(), `a`)
	t.AddChild(t.Root(), `a\`)
	c := t.AddChild(t.Root(), `a)`)
	t.AddChild(c, `\`)
	t.AddChild(c, `x(y`)
	t.AddChild(t.AddChild(t.Root(), `b`), `)`)
	return t
}

func sha(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func TestCanonicalBytesGolden(t *testing.T) {
	small := docsShaped(3, 3)
	const smallXML = `<log><s0><b0><item><v/></item><item><v/></item><item><v/></item><item><v/></item><item><v/></item></b0><b1><item><v/></item><item><v/></item><item><v/></item><item><v/></item><item><v/></item><item><v/></item><item><v/></item><item><v/></item><n><v/></n></b1><b2><item><v/></item><item><v/></item><item><v/></item><item><v/></item><item><v/></item><item><v/></item><n><v/></n><n><v/></n></b2></s0><s1><b0><item><v/></item><item><v/></item><item><v/></item><item><v/></item><item><v/></item><item><v/></item><item><v/></item></b0><b1><item><v/></item><item><v/></item><item><v/></item><item><v/></item><item><v/></item><n><v/></n></b1><b2><item><v/></item><item><v/></item><item><v/></item><item><v/></item><item><v/></item><item><v/></item><item><v/></item><item><v/></item><n><v/></n><n><v/></n></b2></s1><s2><b0><item><v/></item><item><v/></item><item><v/></item><item><v/></item><item><v/></item><item><v/></item><item><v/></item><item><v/></item><item><v/></item></b0><b1><item><v/></item><item><v/></item><item><v/></item><item><v/></item><item><v/></item><item><v/></item><item><v/></item><n><v/></n></b1><b2><item><v/></item><item><v/></item><item><v/></item><item><v/></item><item><v/></item><n><v/></n><n><v/></n></b2></s2></log>`
	const smallDigest = "3cd2181516a16e808dd53e31bfced632a0621550224ffcdb40622d3eaef3da18"
	if got := small.XML(); got != smallXML {
		t.Errorf("docs-shaped XML changed:\n got %s\nwant %s", got, smallXML)
	}
	if got := small.Digest(); got != smallDigest {
		t.Errorf("docs-shaped Digest = %s, want %s", got, smallDigest)
	}

	// The docs-large size: 16 sections of 16 slots, 4 363 nodes.
	large := docsShaped(16, 16)
	const largeXMLSHA, largeXMLLen = "0097bc95b4343360a192e3e61267bea8784ebfbee6d995e5274ecd0339d1d6e6", 35898
	const largeDigest = "d177a81390bd34a5905717bc133ae7ea6266f24a319fcb460c98893fe4f0edf0"
	if got := large.XML(); sha(got) != largeXMLSHA || len(got) != largeXMLLen {
		t.Errorf("docs-large-shaped XML changed: sha256 %s len %d, want %s len %d", sha(got), len(got), largeXMLSHA, largeXMLLen)
	}
	if got := large.Digest(); got != largeDigest {
		t.Errorf("docs-large-shaped Digest = %s, want %s", got, largeDigest)
	}

	esc := escapedLabels()
	const escXML = `<n-ru28><a><n-u28/><n-au5cu29/></a><a/><n-au29><n-u5c/><n-xu28y/></n-au29><n-au29><n-u5c/><n-xu28y/></n-au29><n-au5c/><b><n-u29/></b></n-ru28>`
	const escString = `<r(><a><(/><a\)/></a><a/><a)><\/><x(y/></a)><a)><\/><x(y/></a)><a\/><b><)/></b></r(>`
	const escIndent = "<n-ru28>\n  <a>\n    <n-u28/>\n    <n-au5cu29/>\n  </a>\n  <a/>\n  <n-au29>\n    <n-u5c/>\n    <n-xu28y/>\n  </n-au29>\n  <n-au29>\n    <n-u5c/>\n    <n-xu28y/>\n  </n-au29>\n  <n-au5c/>\n  <b>\n    <n-u29/>\n  </b>\n</n-ru28>\n"
	const escDigest = "1aba989c45b6259b446e5b206efd70a2865650d5f9fe8601f3c12ae3c7100bc9"
	if got := esc.XML(); got != escXML {
		t.Errorf("escaped-label XML = %s, want %s", got, escXML)
	}
	if got := esc.String(); got != escString {
		t.Errorf("escaped-label String = %s, want %s", got, escString)
	}
	var b strings.Builder
	if err := esc.Write(&b, true); err != nil || b.String() != escIndent {
		t.Errorf("escaped-label indented Write = %q (%v), want %q", b.String(), err, escIndent)
	}
	if got := esc.Digest(); got != escDigest {
		t.Errorf("escaped-label Digest = %s, want %s", got, escDigest)
	}
}

// TestDigestXMLMatchesDigestAndXML: the one-pass DigestXML returns
// exactly Digest() and XML() on the golden inputs.
func TestDigestXMLMatchesDigestAndXML(t *testing.T) {
	for name, tr := range map[string]*Tree{
		"docs-shaped":       docsShaped(3, 3),
		"docs-large-shaped": docsShaped(16, 16),
		"escaped-labels":    escapedLabels(),
		"single node":       New("a"),
	} {
		digest, xml := tr.DigestXML()
		if digest != tr.Digest() {
			t.Errorf("%s: DigestXML digest %s, Digest %s", name, digest, tr.Digest())
		}
		if xml != tr.XML() {
			t.Errorf("%s: DigestXML xml %q, XML %q", name, xml, tr.XML())
		}
	}
}

// refCode is the recursive encoder the one-buffer kernel replaced, kept
// here as the reference: each node's code is its own string, built from
// its children's sorted codes. The oracle below sorts by it, so it does
// not depend on the kernel it checks.
func refCode(n *Node) string {
	var b strings.Builder
	writeRefCode(&b, n)
	return b.String()
}

func writeRefCode(b *strings.Builder, n *Node) {
	b.WriteByte('(')
	b.WriteString(refEscapeLabel(n.label))
	if len(n.children) > 0 {
		codes := make([]string, len(n.children))
		for i, c := range n.children {
			codes[i] = refCode(c)
		}
		sort.Strings(codes)
		for _, c := range codes {
			b.WriteString(c)
		}
	}
	b.WriteByte(')')
}

func refEscapeLabel(l string) string {
	if !strings.ContainsAny(l, `()\`) {
		return l
	}
	r := strings.NewReplacer(`\`, `\\`, `(`, `\(`, `)`, `\)`)
	return r.Replace(l)
}

// The comparator-sorting writer the one-pass writer replaced, kept here
// as the oracle: it re-encodes both subtrees on every comparison.

func oldSortedChildren(n *Node) []*Node {
	cs := append([]*Node(nil), n.children...)
	sort.Slice(cs, func(i, j int) bool {
		ci, cj := refCode(cs[i]), refCode(cs[j])
		if ci != cj {
			return ci < cj
		}
		return cs[i].ID() < cs[j].ID()
	})
	return cs
}

func oldWriteXML(w io.Writer, n *Node) {
	name := xmlName(n.Label())
	if len(n.children) == 0 {
		fmt.Fprintf(w, "<%s/>", name)
		return
	}
	fmt.Fprintf(w, "<%s>", name)
	for _, c := range oldSortedChildren(n) {
		oldWriteXML(w, c)
	}
	fmt.Fprintf(w, "</%s>", name)
}

func oldWriteXMLIndent(w io.Writer, n *Node, depth int) {
	pad := strings.Repeat("  ", depth)
	name := xmlName(n.Label())
	if len(n.children) == 0 {
		fmt.Fprintf(w, "%s<%s/>\n", pad, name)
		return
	}
	fmt.Fprintf(w, "%s<%s>\n", pad, name)
	for _, c := range oldSortedChildren(n) {
		oldWriteXMLIndent(w, c, depth+1)
	}
	fmt.Fprintf(w, "%s</%s>\n", pad, name)
}

func oldString(b *strings.Builder, n *Node) {
	if len(n.children) == 0 {
		fmt.Fprintf(b, "<%s/>", n.Label())
		return
	}
	fmt.Fprintf(b, "<%s>", n.Label())
	cs := append([]*Node(nil), n.children...)
	sort.Slice(cs, func(i, j int) bool { return refCode(cs[i]) < refCode(cs[j]) })
	for _, c := range cs {
		oldString(b, c)
	}
	fmt.Fprintf(b, "</%s>", n.Label())
}

func TestWriterMatchesComparatorWriter(t *testing.T) {
	// Small alphabets make isomorphic siblings common; the escaped labels
	// make code order and XML-name order disagree.
	alphabets := [][]string{
		{"a", "b"},
		{"a", "b", "c", "item", "v"},
		{"a", "a(", `a\`, "a)", "(", "é", "b-1"},
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		tr := Random(rng, RandomConfig{
			Size:   1 + rng.Intn(40),
			Labels: alphabets[i%len(alphabets)],
			Skew:   rng.Float64() * 0.6,
		})
		if i%2 == 1 {
			// Graft copies of a subtree elsewhere: fresh identities,
			// isomorphic siblings in different child-list positions.
			nodes := tr.Nodes()
			src := tr.CloneSubtree(nodes[rng.Intn(len(nodes))])
			for k := 0; k < 1+rng.Intn(3); k++ {
				tr.Graft(nodes[rng.Intn(len(nodes))], src)
			}
		}
		var want, wantIndent, wantString strings.Builder
		oldWriteXML(&want, tr.Root())
		oldWriteXMLIndent(&wantIndent, tr.Root(), 0)
		oldString(&wantString, tr.Root())
		if got := tr.XML(); got != want.String() {
			t.Fatalf("tree %d: XML\n got %s\nwant %s", i, got, want.String())
		}
		var indent strings.Builder
		if err := tr.Write(&indent, true); err != nil || indent.String() != wantIndent.String() {
			t.Fatalf("tree %d: indented Write\n got %s\nwant %s", i, indent.String(), wantIndent.String())
		}
		if got := tr.String(); got != wantString.String() {
			t.Fatalf("tree %d: String\n got %s\nwant %s", i, got, wantString.String())
		}
	}
}

// TestCodeMatchesReferenceEncoder holds the kernel's Code, at every node
// of random trees with escaped labels and isomorphic siblings, and its
// Digest, to the per-node-string encoder it replaced.
func TestCodeMatchesReferenceEncoder(t *testing.T) {
	alphabets := [][]string{
		{"a", "b"},
		{"a", "a(", `a\`, "a)", "(", `\`, ")", "é", "b-1"},
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		tr := Random(rng, RandomConfig{
			Size:   1 + rng.Intn(40),
			Labels: alphabets[i%len(alphabets)],
			Skew:   rng.Float64() * 0.6,
		})
		if i%2 == 1 {
			nodes := tr.Nodes()
			src := tr.CloneSubtree(nodes[rng.Intn(len(nodes))])
			tr.Graft(nodes[rng.Intn(len(nodes))], src)
		}
		for _, n := range tr.Nodes() {
			if got, want := Code(n), refCode(n); got != want {
				t.Fatalf("tree %d node %d: Code = %s, reference = %s", i, n.ID(), got, want)
			}
		}
		if got, want := tr.Digest(), sha(refCode(tr.Root())); got != want {
			t.Fatalf("tree %d: Digest = %s, reference = %s", i, got, want)
		}
	}
}

// failingWriter fails every write after the first n bytes.
type failingWriter struct{ n int }

func (f *failingWriter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		k := f.n
		f.n = 0
		return k, io.ErrShortWrite
	}
	f.n -= len(p)
	return len(p), nil
}

func TestWriteReportsWriterError(t *testing.T) {
	tr := docsShaped(4, 4)
	if err := tr.Write(&failingWriter{n: 100}, false); err == nil {
		t.Fatalf("Write swallowed the writer's error")
	}
	if err := tr.Write(&failingWriter{n: 1 << 30}, true); err != nil {
		t.Fatalf("Write failed on a healthy writer: %v", err)
	}
}

// TestVersionsReadConcurrently: versions share nodes and the writers
// share pooled kernel buffers, so goroutines reading versions of one
// document at once must see what one reader alone sees.
func TestVersionsReadConcurrently(t *testing.T) {
	base := docsShaped(6, 6)
	versions := []*Tree{base}
	for _, id := range []int{3, 40, 77, 150} {
		versions = append(versions, graft(base, id, "<n><v/></n>"))
	}
	want := make([]string, len(versions))
	iso := make([]bool, len(versions))
	for i, v := range versions {
		want[i] = v.Digest() + v.XML() + v.String()
		iso[i] = Isomorphic(v, versions[(i+1)%len(versions)])
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				i := (g + k) % len(versions)
				v := versions[i]
				if got := v.Digest() + v.XML() + v.String(); got != want[i] {
					t.Errorf("version %d read differently under concurrency", i)
					return
				}
				if IsomorphicDerived(base, v, versions[(i+1)%len(versions)]) != iso[i] {
					t.Errorf("versions %d and %d compared differently under concurrency", i, (i+1)%len(versions))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
