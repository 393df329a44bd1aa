package core

import (
	"crypto/sha256"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"xmlconflict/internal/ops"
	"xmlconflict/internal/pattern"
	"xmlconflict/internal/xmltree"
	"xmlconflict/internal/xpath"
)

// referenceDetectKey and referenceIndependenceKey are the keys as they
// were built before: each piece written into a strings.Builder, the
// text copied into a byte slice, then hashed. The keys detectKey and
// independenceKey append into one buffer must hash the same text.
func referenceDetectKey(r ops.Read, u ops.Update, sem ops.Semantics, opts SearchOptions) (cacheKey, bool) {
	var b strings.Builder
	b.WriteString(r.P.String())
	b.WriteByte(0)
	if !referenceUpdateKey(&b, u) {
		return cacheKey{}, false
	}
	b.WriteByte(0)
	b.WriteString(sem.String())
	b.WriteByte(0)
	referenceBoundsKey(&b, opts)
	return sha256.Sum256([]byte(b.String())), true
}

func referenceIndependenceKey(u1, u2 ops.Update, opts SearchOptions) (cacheKey, bool) {
	var b strings.Builder
	b.WriteString("independent\x00")
	if !referenceUpdateKey(&b, u1) {
		return cacheKey{}, false
	}
	b.WriteByte(0)
	if !referenceUpdateKey(&b, u2) {
		return cacheKey{}, false
	}
	b.WriteByte(0)
	referenceBoundsKey(&b, independenceBounds(opts))
	return sha256.Sum256([]byte(b.String())), true
}

func referenceUpdateKey(b *strings.Builder, u ops.Update) bool {
	switch v := u.(type) {
	case ops.Insert:
		b.WriteString("insert\x00")
		b.WriteString(v.P.String())
		b.WriteByte(0)
		b.WriteString(xmltree.Code(v.X.Root()))
	case *ops.Insert:
		return referenceUpdateKey(b, *v)
	case ops.Delete:
		b.WriteString("delete\x00")
		b.WriteString(v.P.String())
	case *ops.Delete:
		return referenceUpdateKey(b, *v)
	default:
		return false
	}
	return true
}

func referenceBoundsKey(b *strings.Builder, opts SearchOptions) {
	b.WriteString(strconv.Itoa(opts.MaxNodes))
	b.WriteByte(0)
	b.WriteString(strconv.Itoa(opts.MaxCandidates))
	for _, l := range opts.Labels {
		b.WriteByte(0)
		b.WriteString(l)
	}
}

// otherUpdate is an update kind the cache cannot key.
type otherUpdate struct{ ops.Delete }

// TestCacheKeysMatchReference: on the conformance corpus's reads and
// updates, random patterns and long payloads that outgrow the key's
// stack buffer, under several bound sets, detectKey and independenceKey
// hash the same text the reference builders do, and refuse the same
// update kinds.
func TestCacheKeysMatchReference(t *testing.T) {
	var reads []ops.Read
	var updates []ops.Update
	for _, cc := range conformanceCorpus {
		reads = append(reads, ops.Read{P: xpath.MustParse(cc.read)})
		if cc.ins != "" {
			ins := ops.Insert{P: xpath.MustParse(cc.ins), X: xmltree.MustParse(cc.x)}
			updates = append(updates, ins, &ins)
		} else {
			del := ops.Delete{P: xpath.MustParse(cc.del)}
			updates = append(updates, del, &del)
		}
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		p := pattern.Random(rng, pattern.RandomConfig{
			Size: 1 + rng.Intn(12), Labels: []string{"a", "b", "section-" + strings.Repeat("x", i)},
			PWildcard: 0.2, PDescendant: 0.3, PBranch: 0.3,
		})
		reads = append(reads, ops.Read{P: p})
		x := xmltree.MustParse("<n>" + strings.Repeat("<v/>", i*4) + "</n>")
		updates = append(updates, ops.Insert{P: p, X: x}, ops.Delete{P: p})
	}
	updates = append(updates, otherUpdate{ops.Delete{P: xpath.MustParse("/a")}})
	bounds := []SearchOptions{{}, {MaxNodes: 8, MaxCandidates: 100_000}, {MaxNodes: 5, Labels: []string{"a", "β"}}}
	for _, opts := range bounds {
		for i, r := range reads {
			for j, u := range updates {
				if (i+j)%3 != 0 {
					continue // a third of the pairs suffices
				}
				got, gok := detectKey(r, u, ops.Semantics(j%3), opts)
				want, wok := referenceDetectKey(r, u, ops.Semantics(j%3), opts)
				if got != want || gok != wok {
					t.Fatalf("detectKey(%s, %s) differs from the reference", r.P, u.Pattern())
				}
			}
		}
		for i, u1 := range updates {
			for j, u2 := range updates {
				if (i+j)%5 != 0 {
					continue
				}
				got, gok := independenceKey(u1, u2, opts)
				want, wok := referenceIndependenceKey(u1, u2, opts)
				if got != want || gok != wok {
					t.Fatalf("independenceKey(%s, %s) differs from the reference", u1.Pattern(), u2.Pattern())
				}
			}
		}
	}
}

// askParsed parses a detect ask the way a server's handler does and
// answers it through the cache.
func askParsed(c *DetectorCache, read, insert, x string, opts SearchOptions) (Verdict, error) {
	rp, err := xpath.Parse(read)
	if err != nil {
		return Verdict{}, err
	}
	ip, err := xpath.Parse(insert)
	if err != nil {
		return Verdict{}, err
	}
	xt, err := xmltree.ParseString(x)
	if err != nil {
		return Verdict{}, err
	}
	return c.Detect(ops.Read{P: rp}, ops.Insert{P: ip, X: xt}, ops.NodeSemantics, opts)
}

// TestCachedDetectAllocs pins what a repeated ask costs in allocations:
// parsing both patterns and the payload, keying the pair, and the hit.
// It counts in normal builds only: the payload's code is built in a
// pooled buffer, which a race-detector build drops at random.
func TestCachedDetectAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	c := NewDetectorCache(0)
	opts := SearchOptions{MaxNodes: 8, MaxCandidates: 100_000}
	if _, err := askParsed(c, "/b/*/a", "/*//c", "<a/>", opts); err != nil {
		t.Fatal(err)
	}
	hits, _ := c.Counts()
	got := testing.AllocsPerRun(200, func() {
		if _, err := askParsed(c, "/b/*/a", "/*//c", "<a/>", opts); err != nil {
			t.Fatal(err)
		}
	})
	if h, _ := c.Counts(); h <= hits {
		t.Fatal("the repeated asks did not hit the cache")
	}
	if got > 16 {
		t.Fatalf("parse plus cached hit allocates %v times, want at most 16", got)
	}
}

// BenchmarkCachedDetect is a detect ask whose verdict is cached: parse
// the read, the insert's pattern and its payload, then hit a warm
// cache, as a server does for a popular pair.
func BenchmarkCachedDetect(b *testing.B) {
	c := NewDetectorCache(0)
	opts := SearchOptions{MaxNodes: 8, MaxCandidates: 100_000}
	if _, err := askParsed(c, "/b/*/a", "/*//c", "<a/>", opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := askParsed(c, "/b/*/a", "/*//c", "<a/>", opts); err != nil {
			b.Fatal(err)
		}
	}
}
