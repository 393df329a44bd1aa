// Package xpath parses the XPath fragment of "Conflicting XML Updates"
// (Section 2.2):
//
//	e → e/e | e//e | e[e] | e[.//e] | σ | *
//
// into tree patterns (package pattern). The fragment supports only the
// child and descendant axes, wildcards, and branching predicates; sibling
// order, attributes, and value comparisons are outside the paper's model.
//
// Accepted surface syntax:
//
//	/a/b[c]//d        absolute path; the root of the document must be a
//	a/b               relative paths are treated as absolute (the pattern
//	                  root always maps to the tree root, Section 2.3)
//	//a               a synthetic * root with a descendant edge to a
//	a[.//b]           descendant-anchored predicate (also accepted: [//b])
//	a[b/c][*//d]      predicates may contain full relative expressions
//
// The output node of the resulting pattern is the last step of the
// top-level path.
package xpath

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"xmlconflict/internal/pattern"
)

// Parse parses an expression in the paper's XPath fragment into a tree
// pattern. It reads the expression once, token by token, collecting its
// steps in the parser (on the stack for up to 16 of them), and then
// builds every node of the pattern from one allocation (pattern.Build).
func Parse(expr string) (*pattern.Pattern, error) {
	p := parser{src: expr}
	out, err := p.parse()
	if err != nil {
		return nil, fmt.Errorf("xpath: %w", err)
	}
	steps := p.more
	if steps == nil {
		steps = p.first[:p.n]
	}
	return pattern.Build(steps, out), nil
}

// MustParse is Parse that panics on error; intended for tests and examples
// with literal expressions.
func MustParse(expr string) *pattern.Pattern {
	p, err := Parse(expr)
	if err != nil {
		panic(err)
	}
	return p
}

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokName
	tokStar    // *
	tokSlash   // /
	tokDSlash  // //
	tokLBrack  // [
	tokRBrack  // ]
	tokDotSelf // . (only meaningful as the ".//" predicate prefix)
)

// token is one lexical unit. An end-of-expression token with text is a
// character no token starts with: the scan stops there, and the parser
// reports it where it expects something else.
type token struct {
	kind tokenKind
	text string
	pos  int
}

// String describes the token for error messages.
func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of expression"
	case tokName:
		return fmt.Sprintf("name %q", t.text)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// Name characters follow the shape of XML names: letters (any script)
// and underscore start a name; digits, hyphen, and dot may continue it.
func isNameStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isNameRest(r rune) bool {
	return isNameStart(r) || unicode.IsDigit(r) || r == '-' || r == '.'
}

// nameCharAt reports the width of the character at s[i] and whether it
// starts a name (first) or continues one. An ASCII byte is decided
// without decoding it.
func nameCharAt(s string, i int, first bool) (int, bool) {
	if c := s[i]; c < utf8.RuneSelf {
		letter := 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_'
		return 1, letter || !first && ('0' <= c && c <= '9' || c == '-' || c == '.')
	}
	r, w := utf8.DecodeRuneInString(s[i:])
	if first {
		return w, isNameStart(r)
	}
	return w, isNameRest(r)
}

// parser reads the expression one token ahead: tok is the next token,
// and pos is where the scan for the one after it starts. It collects
// the pattern's nodes in the order they are read: the first n in first,
// all of them in more once there are too many for first. first is an
// array inside the parser, not a slice of one outside it, so the steps
// stay wherever the parser is, which for Parse is its stack.
type parser struct {
	src   string
	pos   int
	tok   token
	first [16]pattern.Step
	n     int
	more  []pattern.Step
}

// scan reads the token at pos into tok, skipping whitespace. At the end
// of the expression, or at a character no token starts with, tok is an
// end token (carrying that character) and pos moves to the end, so the
// scan goes no further.
func (p *parser) scan() {
	s := p.src
	i := p.pos
	for i < len(s) {
		c := s[i]
		switch c {
		case ' ', '\t', '\n', '\r':
			i++
			continue
		case '/':
			if i+1 < len(s) && s[i+1] == '/' {
				p.tok, p.pos = token{tokDSlash, "//", i}, i+2
			} else {
				p.tok, p.pos = token{tokSlash, "/", i}, i+1
			}
			return
		case '[':
			p.tok, p.pos = token{tokLBrack, "[", i}, i+1
			return
		case ']':
			p.tok, p.pos = token{tokRBrack, "]", i}, i+1
			return
		case '*':
			p.tok, p.pos = token{tokStar, "*", i}, i+1
			return
		case '.':
			// "." is only valid immediately before "//" or "/" in a
			// predicate; the parser enforces context.
			p.tok, p.pos = token{tokDotSelf, ".", i}, i+1
			return
		}
		w, ok := nameCharAt(s, i, true)
		if !ok {
			break // a character no token starts with
		}
		j := i + w
		for j < len(s) {
			w, ok := nameCharAt(s, j, false)
			if !ok {
				break
			}
			j += w
		}
		p.tok, p.pos = token{tokName, s[i:j], i}, j
		return
	}
	if i < len(s) {
		_, w := utf8.DecodeRuneInString(s[i:])
		p.tok = token{tokEOF, s[i : i+w], i}
	} else {
		p.tok = token{tokEOF, "", len(s)}
	}
	p.pos = len(s)
}

// next returns the next token and moves past it, unless it ends the
// expression.
func (p *parser) next() token {
	t := p.tok
	if t.kind != tokEOF {
		p.scan()
	}
	return t
}

func (p *parser) errf(t token, format string, args ...any) error {
	return fmt.Errorf("at offset %d: %s", t.pos, fmt.Sprintf(format, args...))
}

// add records a node under parent (-1 for the root) and returns its
// index.
func (p *parser) add(parent int, axis pattern.Axis, label string) int {
	st := pattern.Step{Label: label, Axis: axis, Parent: parent}
	if p.more == nil && p.n < len(p.first) {
		p.first[p.n] = st
		p.n++
		return p.n - 1
	}
	if p.more == nil {
		p.more = make([]pattern.Step, p.n, 4*p.n)
		copy(p.more, p.first[:p.n])
	}
	p.more = append(p.more, st)
	return len(p.more) - 1
}

// parse parses a full top-level expression and returns the index of its
// output node.
func (p *parser) parse() (int, error) {
	if strings.TrimSpace(p.src) == "" {
		return 0, fmt.Errorf("empty expression")
	}
	p.scan()
	// Leading axis.
	var cur int
	switch p.tok.kind {
	case tokDSlash:
		// //a  ≡  a synthetic wildcard root with a descendant edge.
		p.next()
		n, err := p.step(p.add(-1, pattern.Child, pattern.Wildcard), pattern.Descendant)
		if err != nil {
			return 0, err
		}
		cur = n
	case tokSlash:
		p.next()
		fallthrough
	default:
		label, err := p.nameOrStar()
		if err != nil {
			return 0, err
		}
		cur = p.add(-1, pattern.Child, label)
		if err := p.predicates(cur); err != nil {
			return 0, err
		}
	}
	for {
		var axis pattern.Axis
		switch t := p.tok; t.kind {
		case tokSlash:
			axis = pattern.Child
		case tokDSlash:
			axis = pattern.Descendant
		case tokEOF:
			if t.text != "" {
				r, _ := utf8.DecodeRuneInString(t.text)
				return 0, p.errf(t, "unexpected character %q", string(r))
			}
			return cur, nil
		default:
			return 0, p.errf(t, "unexpected %s", t)
		}
		p.next()
		n, err := p.step(cur, axis)
		if err != nil {
			return 0, err
		}
		cur = n
	}
}

// step parses one step (name-or-star plus predicates) and records it
// under parent with the given axis.
func (p *parser) step(parent int, axis pattern.Axis) (int, error) {
	label, err := p.nameOrStar()
	if err != nil {
		return 0, err
	}
	n := p.add(parent, axis, label)
	if err := p.predicates(n); err != nil {
		return 0, err
	}
	return n, nil
}

func (p *parser) nameOrStar() (string, error) {
	t := p.next()
	switch t.kind {
	case tokName:
		return t.text, nil
	case tokStar:
		return pattern.Wildcard, nil
	default:
		return "", p.errf(t, "expected a name or *, found %s", t)
	}
}

// predicates parses zero or more [ ... ] predicates attached to anchor.
func (p *parser) predicates(anchor int) error {
	for p.tok.kind == tokLBrack {
		p.next()
		if err := p.relExpr(anchor); err != nil {
			return err
		}
		if t := p.next(); t.kind != tokRBrack {
			return p.errf(t, "expected ], found %s", t)
		}
	}
	return nil
}

// relExpr parses the relative expression inside a predicate and records
// it under anchor. Grammar: optional anchor prefix (".//", "./", "//",
// "/"), then a step path.
func (p *parser) relExpr(anchor int) error {
	axis := pattern.Child
	switch p.tok.kind {
	case tokDotSelf:
		p.next()
		switch t := p.next(); t.kind {
		case tokDSlash:
			axis = pattern.Descendant
		case tokSlash:
			axis = pattern.Child
		default:
			return p.errf(t, `expected "//" or "/" after "." in predicate, found %s`, t)
		}
	case tokDSlash:
		p.next()
		axis = pattern.Descendant
	case tokSlash:
		p.next()
	}
	cur, err := p.step(anchor, axis)
	if err != nil {
		return err
	}
	for {
		switch p.tok.kind {
		case tokSlash:
			axis = pattern.Child
		case tokDSlash:
			axis = pattern.Descendant
		default:
			return nil
		}
		p.next()
		if cur, err = p.step(cur, axis); err != nil {
			return err
		}
	}
}
