package xpath

// The lexer, parser and renderer Parse and Pattern.String replaced,
// kept as the references the differential tests hold them to: an
// eager lexer that builds a token slice, a parser that builds the
// pattern through pattern.New and AddChild, and a renderer that walks
// the spine through a map. Only identifiers were renamed, and the
// renderer reads the pattern through its exported accessors.

import (
	"fmt"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"

	"xmlconflict/internal/pattern"
)

// referenceParse is Parse as it was: tokens first, then the pattern.
func referenceParse(expr string) (*pattern.Pattern, error) {
	p := &refParser{lex: newRefLexer(expr)}
	pat, err := p.parse()
	if err != nil {
		return nil, fmt.Errorf("xpath: %w", err)
	}
	return pat, nil
}

type refTokenKind int

const (
	refEOF refTokenKind = iota
	refName
	refStar    // *
	refSlash   // /
	refDSlash  // //
	refLBrack  // [
	refRBrack  // ]
	refDotSelf // . (only meaningful as the ".//" predicate prefix)
)

type refToken struct {
	kind refTokenKind
	text string
	pos  int
}

// String describes the token for error messages.
func (t refToken) String() string {
	switch t.kind {
	case refEOF:
		return "end of expression"
	case refName:
		return fmt.Sprintf("name %q", t.text)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

type refLexer struct {
	src  string
	pos  int
	toks []refToken
}

func newRefLexer(src string) *refLexer {
	l := &refLexer{src: src}
	l.run()
	return l
}

// Name characters follow the shape of XML names: letters (any script)
// and underscore start a name; digits, hyphen, and dot may continue it.
func refIsNameStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func refIsNameRest(r rune) bool {
	return refIsNameStart(r) || unicode.IsDigit(r) || r == '-' || r == '.'
}

func (l *refLexer) run() {
	s := l.src
	i := 0
	for i < len(s) {
		r, width := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == ' ' || r == '\t' || r == '\n' || r == '\r':
			i += width
		case r == '/':
			if i+1 < len(s) && s[i+1] == '/' {
				l.toks = append(l.toks, refToken{refDSlash, "//", i})
				i += 2
			} else {
				l.toks = append(l.toks, refToken{refSlash, "/", i})
				i++
			}
		case r == '[':
			l.toks = append(l.toks, refToken{refLBrack, "[", i})
			i++
		case r == ']':
			l.toks = append(l.toks, refToken{refRBrack, "]", i})
			i++
		case r == '*':
			l.toks = append(l.toks, refToken{refStar, "*", i})
			i++
		case r == '.':
			// "." is only valid immediately before "//" or "/" in a
			// predicate; the parser enforces context.
			l.toks = append(l.toks, refToken{refDotSelf, ".", i})
			i++
		case refIsNameStart(r):
			j := i + width
			for j < len(s) {
				nr, nw := utf8.DecodeRuneInString(s[j:])
				if !refIsNameRest(nr) {
					break
				}
				j += nw
			}
			l.toks = append(l.toks, refToken{refName, s[i:j], i})
			i = j
		default:
			l.toks = append(l.toks, refToken{refEOF, string(r), i})
			i = len(s) // force error in parser via bad token
		}
	}
	l.toks = append(l.toks, refToken{refEOF, "", len(s)})
}

type refParser struct {
	lex *refLexer
	i   int
}

func (p *refParser) peek() refToken { return p.lex.toks[p.i] }

func (p *refParser) next() refToken {
	t := p.lex.toks[p.i]
	if t.kind != refEOF {
		p.i++
	}
	return t
}

func (p *refParser) errf(t refToken, format string, args ...any) error {
	return fmt.Errorf("at offset %d: %s", t.pos, fmt.Sprintf(format, args...))
}

// parse parses a full top-level expression.
func (p *refParser) parse() (*pattern.Pattern, error) {
	if strings.TrimSpace(p.lex.src) == "" {
		return nil, fmt.Errorf("empty expression")
	}
	// Leading axis.
	firstAxis := pattern.Child
	switch p.peek().kind {
	case refSlash:
		p.next()
	case refDSlash:
		p.next()
		firstAxis = pattern.Descendant
	}
	var pat *pattern.Pattern
	var cur *pattern.Node
	if firstAxis == pattern.Descendant {
		// //a  ≡  a synthetic wildcard root with a descendant edge.
		pat = pattern.New(pattern.Wildcard)
		cur = pat.Root()
		n, err := p.step(pat, cur, pattern.Descendant)
		if err != nil {
			return nil, err
		}
		cur = n
	} else {
		label, err := p.nameOrStar()
		if err != nil {
			return nil, err
		}
		pat = pattern.New(label)
		cur = pat.Root()
		if err := p.predicates(pat, cur); err != nil {
			return nil, err
		}
	}
	for {
		switch t := p.peek(); t.kind {
		case refSlash:
			p.next()
			n, err := p.step(pat, cur, pattern.Child)
			if err != nil {
				return nil, err
			}
			cur = n
		case refDSlash:
			p.next()
			n, err := p.step(pat, cur, pattern.Descendant)
			if err != nil {
				return nil, err
			}
			cur = n
		case refEOF:
			if t.text != "" {
				return nil, p.errf(t, "unexpected character %q", t.text)
			}
			pat.SetOutput(cur)
			if err := pat.Validate(); err != nil {
				return nil, err
			}
			return pat, nil
		default:
			return nil, p.errf(t, "unexpected %s", t)
		}
	}
}

// step parses one step (name-or-star plus predicates) and attaches it under
// parent with the given axis.
func (p *refParser) step(pat *pattern.Pattern, parent *pattern.Node, axis pattern.Axis) (*pattern.Node, error) {
	label, err := p.nameOrStar()
	if err != nil {
		return nil, err
	}
	n := pat.AddChild(parent, axis, label)
	if err := p.predicates(pat, n); err != nil {
		return nil, err
	}
	return n, nil
}

func (p *refParser) nameOrStar() (string, error) {
	t := p.next()
	switch t.kind {
	case refName:
		return t.text, nil
	case refStar:
		return pattern.Wildcard, nil
	default:
		return "", p.errf(t, "expected a name or *, found %s", t)
	}
}

// predicates parses zero or more [ ... ] predicates attached to anchor.
func (p *refParser) predicates(pat *pattern.Pattern, anchor *pattern.Node) error {
	for p.peek().kind == refLBrack {
		p.next()
		if err := p.relExpr(pat, anchor); err != nil {
			return err
		}
		if t := p.next(); t.kind != refRBrack {
			return p.errf(t, "expected ], found %s", t)
		}
	}
	return nil
}

// relExpr parses the relative expression inside a predicate and attaches it
// under anchor. Grammar: optional anchor prefix (".//", "./", "//", "/"),
// then a step path.
func (p *refParser) relExpr(pat *pattern.Pattern, anchor *pattern.Node) error {
	axis := pattern.Child
	switch p.peek().kind {
	case refDotSelf:
		p.next()
		switch t := p.next(); t.kind {
		case refDSlash:
			axis = pattern.Descendant
		case refSlash:
			axis = pattern.Child
		default:
			return p.errf(t, `expected "//" or "/" after "." in predicate, found %s`, t)
		}
	case refDSlash:
		p.next()
		axis = pattern.Descendant
	case refSlash:
		p.next()
	}
	cur, err := p.step(pat, anchor, axis)
	if err != nil {
		return err
	}
	for {
		switch p.peek().kind {
		case refSlash:
			p.next()
			cur, err = p.step(pat, cur, pattern.Child)
			if err != nil {
				return err
			}
		case refDSlash:
			p.next()
			cur, err = p.step(pat, cur, pattern.Descendant)
			if err != nil {
				return err
			}
		default:
			return nil
		}
	}
}

// referenceString is Pattern.String as it was: the spine as steps, each
// step's off-spine children as sorted predicates.
func referenceString(p *pattern.Pattern) string {
	spine := p.Spine()
	onSpine := map[*pattern.Node]bool{}
	for _, n := range spine {
		onSpine[n] = true
	}
	var b strings.Builder
	for i, n := range spine {
		if i == 0 {
			b.WriteString("/")
		} else {
			b.WriteString(n.Axis().String())
		}
		b.WriteString(n.Label())
		var preds []string
		for _, c := range n.Children() {
			if onSpine[c] {
				continue
			}
			preds = append(preds, refPredicate(c))
		}
		sort.Strings(preds)
		for _, pr := range preds {
			b.WriteString(pr)
		}
	}
	return b.String()
}

// refPredicate renders the subtree rooted at n as a predicate [...] on
// its parent step.
func refPredicate(n *pattern.Node) string {
	var b strings.Builder
	b.WriteString("[")
	if n.Axis() == pattern.Descendant {
		b.WriteString(".//")
	}
	refWriteRel(&b, n)
	b.WriteString("]")
	return b.String()
}

// refWriteRel renders the subtree at n as a relative path expression.
func refWriteRel(b *strings.Builder, n *pattern.Node) {
	b.WriteString(n.Label())
	var preds []string
	for _, c := range n.Children() {
		preds = append(preds, refPredicate(c))
	}
	sort.Strings(preds)
	for _, p := range preds {
		b.WriteString(p)
	}
}
