package xmltree

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
)

// ParseLimits bounds what Parse will accept, so hostile documents (XML
// bombs: pathologically deep nesting, element floods, endless input)
// are rejected with a typed *LimitError instead of exhausting memory.
// A zero field means "no bound on that dimension"; the zero value is
// therefore fully unbounded parsing.
type ParseLimits struct {
	// MaxDepth bounds element nesting depth (the root is depth 1).
	MaxDepth int
	// MaxNodes bounds the number of elements in the document.
	MaxNodes int
	// MaxBytes bounds how much input is read, in bytes.
	MaxBytes int64
}

// DefaultParseLimits are the bounds Parse applies: generous enough for
// any document the algorithms here can process, tight enough that an
// XML bomb fails fast. Endpoints handling untrusted input should tighten
// them further (xserve caps MaxBytes at its request-body limit).
func DefaultParseLimits() ParseLimits {
	return ParseLimits{MaxDepth: 4096, MaxNodes: 1 << 20, MaxBytes: 64 << 20}
}

// LimitError is the typed error ParseWithLimits returns when input
// exceeds a ParseLimits bound. Limit names the dimension that fired:
// "depth", "nodes", or "bytes".
type LimitError struct {
	Limit string
	Max   int64
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("xmltree: parse: input exceeds max %s %d", e.Limit, e.Max)
}

// limitReader enforces ParseLimits.MaxBytes, surfacing a *LimitError
// instead of silently truncating (which would misparse the document).
type limitReader struct {
	r    io.Reader
	left int64
	max  int64
}

func (l *limitReader) Read(p []byte) (int, error) {
	if l.left <= 0 {
		// The budget is spent; the limit fires only if more input
		// actually exists (a document of exactly MaxBytes is fine).
		var probe [1]byte
		for {
			n, err := l.r.Read(probe[:])
			if n > 0 {
				return 0, &LimitError{Limit: "bytes", Max: l.max}
			}
			if err != nil {
				return 0, err
			}
		}
	}
	if int64(len(p)) > l.left {
		p = p[:l.left]
	}
	n, err := l.r.Read(p)
	l.left -= int64(n)
	return n, err
}

// Parse reads an XML document from r and returns its element structure as a
// labeled tree. The data model of the paper has no attributes, text, or
// order, so attributes, character data, comments, and processing
// instructions are discarded; element local names become node labels.
// DefaultParseLimits apply; use ParseWithLimits to loosen or tighten them.
func Parse(r io.Reader) (*Tree, error) {
	return ParseWithLimits(r, DefaultParseLimits())
}

// ParseWithLimits is Parse under explicit resource bounds. Inputs that
// exceed a bound fail with a *LimitError identifying the dimension; zero
// fields of lim are unbounded.
//
// Input in the element-only form this module writes (tags alone, with
// SafeLabel names) is read in one pass; everything else goes through
// encoding/xml. Either way the result is the tree or the error that
// encoding/xml gives.
func ParseWithLimits(r io.Reader, lim ParseLimits) (*Tree, error) {
	src, rest := readBounded(r, lim.MaxBytes)
	if rest != nil {
		return decodeXML(io.MultiReader(bytes.NewReader(src), rest), lim)
	}
	if t, err := parseElements(src, lim); err != errNotElementOnly {
		return t, err
	}
	return decodeXML(bytes.NewReader(src), lim)
}

// readBounded reads r to its end, or to one byte past limit when limit > 0.
// rest is nil when src is the whole input; otherwise the input runs past
// limit or the read failed, and rest yields what r would have yielded
// after src: its remaining bytes, or the read error.
func readBounded(r io.Reader, limit int64) (src []byte, rest io.Reader) {
	size := 512
	if l, ok := r.(interface{ Len() int }); ok {
		size = l.Len() + 1 // room to read the end without growing
	}
	if limit > 0 && limit < int64(size) {
		size = int(limit) + 1
	}
	src = make([]byte, 0, size)
	for {
		if len(src) == cap(src) {
			src = append(src, 0)[:len(src)]
		}
		room := src[len(src):cap(src)]
		if left := limit - int64(len(src)); limit > 0 && left < int64(len(room))-1 {
			room = room[:left+1]
		}
		n, err := r.Read(room)
		src = src[:len(src)+n]
		if limit > 0 && int64(len(src)) > limit {
			// A read that also ended the input is no different: the
			// limit fires at the byte past it, before rest is read.
			return src, r
		}
		if err == io.EOF {
			return src, nil
		}
		if err != nil {
			return src, errReader{err}
		}
	}
}

// errReader replays a read error after the bytes read before it.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// errNotElementOnly is parseElements declining its input.
var errNotElementOnly = errors.New("xmltree: parse: input outside the element-only form")

// parseElements reads src in one pass when it is in the element-only
// form: the tags <n>, </n> and <n/>, names in SafeLabel's alphabet, and
// XML whitespace between tags and before > or />. It builds the tree
// decodeXML builds, node by node in the same order, so it fails with
// the same *LimitError at the same element. At the first byte outside
// that form, or at a malformation (a mismatched end tag, a second root,
// no root, EOF inside an element), it returns errNotElementOnly and
// leaves src to decodeXML, which reports what it finds.
func parseElements(src []byte, lim ParseLimits) (*Tree, error) {
	var (
		t     *Tree
		stack = make([]*Node, 0, 16) // no allocation for shallow documents
		nodes int
	)
	i := skipSpace(src, 0)
	for i < len(src) {
		if src[i] != '<' || t != nil && len(stack) == 0 {
			return nil, errNotElementOnly
		}
		i++
		end := i < len(src) && src[i] == '/'
		if end {
			i++
		}
		j := nameEnd(src, i)
		if j == i {
			return nil, errNotElementOnly
		}
		name := src[i:j]
		i = skipSpace(src, j)
		empty := !end && i < len(src) && src[i] == '/'
		if empty {
			i++
		}
		if i == len(src) || src[i] != '>' {
			return nil, errNotElementOnly
		}
		i = skipSpace(src, i+1)
		if end {
			if len(stack) == 0 || stack[len(stack)-1].label != string(name) {
				return nil, errNotElementOnly
			}
			stack = stack[:len(stack)-1]
			continue
		}
		if nodes++; lim.MaxNodes > 0 && nodes > lim.MaxNodes {
			return nil, &LimitError{Limit: "nodes", Max: int64(lim.MaxNodes)}
		}
		if lim.MaxDepth > 0 && len(stack) >= lim.MaxDepth {
			return nil, &LimitError{Limit: "depth", Max: int64(lim.MaxDepth)}
		}
		var n *Node
		if t == nil {
			t = New(string(name))
			n = t.Root()
		} else {
			// Siblings often share a label; share its string too.
			parent, label := stack[len(stack)-1], ""
			if k := len(parent.children); k > 0 && parent.children[k-1].label == string(name) {
				label = parent.children[k-1].label
			} else {
				label = string(name)
			}
			n = t.AddChild(parent, label)
		}
		if !empty {
			stack = append(stack, n)
		}
	}
	if t == nil || len(stack) != 0 {
		return nil, errNotElementOnly
	}
	return t, nil
}

// skipSpace returns the index of the first byte at or after i that is
// not XML whitespace.
func skipSpace(src []byte, i int) int {
	for i < len(src) && (src[i] == ' ' || src[i] == '\t' || src[i] == '\n' || src[i] == '\r') {
		i++
	}
	return i
}

// nameEnd returns the end of the name in SafeLabel's alphabet that
// starts at src[i], or i when none does.
func nameEnd(src []byte, i int) int {
	j := i
	for j < len(src) && labelByte(src[j], j == i) {
		j++
	}
	return j
}

// decodeXML parses r with encoding/xml's tokenizer: the path for every
// input outside the element-only form, and the reference parseElements
// is held to.
func decodeXML(r io.Reader, lim ParseLimits) (*Tree, error) {
	if lim.MaxBytes > 0 {
		r = &limitReader{r: r, left: lim.MaxBytes, max: lim.MaxBytes}
	}
	dec := xml.NewDecoder(r)
	var t *Tree
	var stack []*Node
	nodes := 0
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			var le *LimitError
			if errors.As(err, &le) {
				return nil, le
			}
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch el := tok.(type) {
		case xml.StartElement:
			label := el.Name.Local
			if nodes++; lim.MaxNodes > 0 && nodes > lim.MaxNodes {
				return nil, &LimitError{Limit: "nodes", Max: int64(lim.MaxNodes)}
			}
			if lim.MaxDepth > 0 && len(stack) >= lim.MaxDepth {
				return nil, &LimitError{Limit: "depth", Max: int64(lim.MaxDepth)}
			}
			if t == nil {
				t = New(label)
				stack = append(stack, t.Root())
			} else if len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: parse: multiple root elements")
			} else {
				stack = append(stack, t.AddChild(stack[len(stack)-1], label))
			}
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: parse: unbalanced end element %s", el.Name.Local)
			}
			stack = stack[:len(stack)-1]
		}
	}
	if t == nil {
		return nil, fmt.Errorf("xmltree: parse: no root element")
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmltree: parse: unexpected EOF inside element")
	}
	return t, nil
}

// ParseString is Parse on a string.
func ParseString(s string) (*Tree, error) {
	return Parse(strings.NewReader(s))
}

// MustParse is ParseString that panics on error; intended for tests and
// examples with literal documents.
func MustParse(s string) *Tree {
	t, err := ParseString(s)
	if err != nil {
		panic(err)
	}
	return t
}

// Write serializes the tree as XML to w. Children are emitted in canonical
// (code-sorted) order so that output is deterministic even though the model
// is unordered. If indent is true, a pretty-printed form is produced.
func (t *Tree) Write(w io.Writer, indent bool) error {
	c := canonicalOrder(t.root)
	defer c.release()
	var out []byte
	if indent {
		out = c.appendXMLIndent(c.tmp[:0], 0, 0)
	} else {
		out = c.appendXML(c.tmp[:0], 0, xmlName)
	}
	c.tmp = out
	_, err := w.Write(out)
	return err
}

// XML returns the serialized form of the tree (children in canonical
// order, no indentation).
func (t *Tree) XML() string { return SubtreeXML(t.root) }

// SubtreeXML returns the serialized form of the subtree rooted at n,
// byte for byte what CloneSubtree(n).XML() gives, without the copy.
func SubtreeXML(n *Node) string { return canonicalString(n, xmlName) }

// canonicalString serializes n's subtree in canonical order, naming each
// element by name(label), or by its label when name is nil.
func canonicalString(n *Node, name func(string) string) string {
	c := canonicalOrder(n)
	defer c.release()
	c.tmp = c.appendXML(c.tmp[:0], 0, name)
	return string(c.tmp)
}

// appendXML appends node i's subtree in canonical order, naming each
// element by name(label), or by its label when name is nil.
func (c *canonical) appendXML(b []byte, i int32, name func(string) string) []byte {
	n := c.nodes[i].label
	if name != nil {
		n = name(n)
	}
	b = append(b, '<')
	b = append(b, n...)
	kids := c.children(i)
	if len(kids) == 0 {
		return append(b, "/>"...)
	}
	b = append(b, '>')
	for _, k := range kids {
		b = c.appendXML(b, k, name)
	}
	b = append(b, "</"...)
	b = append(b, n...)
	return append(b, '>')
}

func (c *canonical) appendXMLIndent(b []byte, i int32, depth int) []byte {
	name := xmlName(c.nodes[i].label)
	for d := 0; d < depth; d++ {
		b = append(b, "  "...)
	}
	b = append(b, '<')
	b = append(b, name...)
	kids := c.children(i)
	if len(kids) == 0 {
		return append(b, "/>\n"...)
	}
	b = append(b, ">\n"...)
	for _, k := range kids {
		b = c.appendXMLIndent(b, k, depth+1)
	}
	for d := 0; d < depth; d++ {
		b = append(b, "  "...)
	}
	b = append(b, "</"...)
	b = append(b, name...)
	return append(b, ">\n"...)
}

// SafeLabel reports whether a label survives XML serialization
// verbatim: Write emits it unchanged, so Parse reads the same label
// back and the tree's AHU digest is stable across a round trip. Safe
// labels are the plain ASCII identifiers the algorithms in this module
// produce — a letter or '_' first, then letters, digits, '-', '.'.
// Anything else (e.g. a non-ASCII name like "café", legal XML but
// outside this alphabet) is escaped lossily by serialization; callers
// that persist the serialized form must reject such labels up front.
func SafeLabel(label string) bool {
	if label == "" {
		return false
	}
	for i := 0; i < len(label); i++ {
		if !labelByte(label[i], i == 0) {
			return false
		}
	}
	return true
}

// labelByte reports whether c belongs to SafeLabel's alphabet, as a
// label's first byte when first is set. Bytes of non-ASCII characters
// never do.
func labelByte(c byte, first bool) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' ||
		!first && (c >= '0' && c <= '9' || c == '-' || c == '.')
}

// UnsafeLabel returns some label in t that SafeLabel rejects — one the
// XML serializer would escape rather than round-trip — or "", false if
// every label in the tree serializes verbatim.
func (t *Tree) UnsafeLabel() (string, bool) {
	bad, found := "", false
	t.Walk(func(n *Node) bool {
		if !SafeLabel(n.label) {
			bad, found = n.label, true
			return false
		}
		return true
	})
	return bad, found
}

// xmlName renders a label as an XML element name. Labels produced by the
// algorithms in this module are plain identifiers; anything else is
// escaped conservatively so the output stays well-formed (but does not
// round-trip — see SafeLabel).
func xmlName(label string) string {
	if SafeLabel(label) {
		return label
	}
	var b strings.Builder
	b.WriteString("n-")
	for _, r := range label {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' {
			b.WriteRune(r)
		} else {
			fmt.Fprintf(&b, "u%x", r)
		}
	}
	return b.String()
}
