// Package xmlconflict detects conflicts between XPath-driven read, insert,
// and delete operations on XML documents. It is a faithful implementation
// of "Conflicting XML Updates" (Mukund Raghavachari and Oded Shmueli,
// EDBT 2006): given two operations — each specified by a tree pattern in
// the XPath fragment with child and descendant axes, wildcards, and
// branching predicates — it decides whether ANY document exists on which
// executing the update changes the read's result, and if so produces such
// a document (a witness).
//
// # Data model
//
// Documents are unordered, unranked labeled trees (Tree, Node). Queries
// are tree patterns (Pattern) compiled from XPath expressions by
// ParseXPath. Operations are Read, Insert, and Delete with the
// reference-based semantics of the XQuery update proposals and XJ: node
// identities survive an update, and an update's Apply returns the new
// version of the document, sharing every subtree it left alone, without
// changing the tree it was given.
//
// # Conflict semantics
//
// Three notions of conflict are supported (Semantics): NodeSemantics
// compares result node sets by identity; TreeSemantics additionally
// requires returned subtrees unmodified; ValueSemantics compares results
// up to tree isomorphism.
//
// # Complexity
//
// When the read pattern is linear — no branching predicates — detection
// runs in polynomial time even if the update pattern branches (the
// paper's Theorems 1-2 and Corollaries 1-2), and a positive verdict
// carries a constructed, machine-verified witness tree. For branching
// reads the problem is NP-complete (Theorems 3-6); Detect then falls back
// to a bounded exhaustive witness search whose completeness bound is the
// paper's Lemma 11.
//
// # Quick start
//
//	read := xmlconflict.MustParseXPath("//C")
//	ins := xmlconflict.Insert{
//		P: xmlconflict.MustParseXPath("/*/B"),
//		X: xmlconflict.MustParseXML("<C/>"),
//	}
//	v, err := xmlconflict.Detect(xmlconflict.Read{P: read}, ins,
//		xmlconflict.NodeSemantics, xmlconflict.SearchOptions{})
//	// v.Conflict == true; v.Witness is a document exhibiting it.
package xmlconflict

import (
	"io"

	"xmlconflict/internal/containment"
	"xmlconflict/internal/core"
	"xmlconflict/internal/match"
	"xmlconflict/internal/ops"
	"xmlconflict/internal/pattern"
	"xmlconflict/internal/program"
	"xmlconflict/internal/schema"
	"xmlconflict/internal/xmltree"
	"xmlconflict/internal/xpath"
)

// Tree is an unordered, unranked labeled tree modeling an XML document
// (Section 2.1 of the paper). Nodes carry stable identities; Clone
// preserves them, which is what makes the reference-based conflict
// semantics meaningful.
type Tree = xmltree.Tree

// Node is a node of a Tree.
type Node = xmltree.Node

// Pattern is a tree pattern (Section 2.2): a tree over Σ ∪ {*} with child
// and descendant edges and a distinguished output node.
type Pattern = pattern.Pattern

// PatternNode is a node of a Pattern.
type PatternNode = pattern.Node

// Axis is the kind of a pattern edge: Child or Descendant.
type Axis = pattern.Axis

// Pattern edge kinds and the wildcard label.
const (
	Child      = pattern.Child
	Descendant = pattern.Descendant
	Wildcard   = pattern.Wildcard
)

// Read is the READ_p operation: evaluating it projects the node set
// [[p]](t) from a document.
type Read = ops.Read

// Insert is the INSERT_{p,X} operation: a fresh copy of X becomes a child
// of every node selected by p.
type Insert = ops.Insert

// Delete is the DELETE_p operation: the subtree rooted at every selected
// node is removed. Its pattern must not select the root.
type Delete = ops.Delete

// Update is an Insert or Delete.
type Update = ops.Update

// Semantics selects one of the paper's three conflict notions.
type Semantics = ops.Semantics

// The three conflict semantics of Section 3.
const (
	// NodeSemantics compares result node sets by identity (the paper's
	// default).
	NodeSemantics = ops.NodeSemantics
	// TreeSemantics additionally requires returned subtrees unmodified.
	TreeSemantics = ops.TreeSemantics
	// ValueSemantics compares results up to tree isomorphism.
	ValueSemantics = ops.ValueSemantics
)

// Verdict is the outcome of a conflict query: the decision, the decision
// procedure used, whether it was complete, and a witness document for
// positive verdicts.
type Verdict = core.Verdict

// SearchOptions bounds the exhaustive witness search used when the read
// pattern branches (the NP-complete case).
type SearchOptions = core.SearchOptions

// Embedding maps pattern nodes to tree nodes per Section 2.3.
type Embedding = match.Embedding

// Program is a parsed pidgin update program (Section 1 of the paper).
type Program = program.Program

// ProgramAnalysis is the pairwise dependence relation of a Program.
type ProgramAnalysis = program.Analysis

// AnalyzeOptions configures program dependence analysis.
type AnalyzeOptions = program.Options

// ParseXPath compiles an expression in the paper's XPath fragment
// (child/descendant axes, wildcards, branching predicates) into a Pattern.
func ParseXPath(expr string) (*Pattern, error) { return xpath.Parse(expr) }

// MustParseXPath is ParseXPath that panics on error.
func MustParseXPath(expr string) *Pattern { return xpath.MustParse(expr) }

// ParseXML reads an XML document's element structure into a Tree.
// Attributes, text, and sibling order are outside the paper's model and
// are discarded.
func ParseXML(r io.Reader) (*Tree, error) { return xmltree.Parse(r) }

// ParseXMLString is ParseXML on a string.
func ParseXMLString(s string) (*Tree, error) { return xmltree.ParseString(s) }

// MustParseXML is ParseXMLString that panics on error.
func MustParseXML(s string) *Tree { return xmltree.MustParse(s) }

// NewTree returns a document consisting of a single root node.
func NewTree(rootLabel string) *Tree { return xmltree.New(rootLabel) }

// Eval evaluates a pattern on a document: [[p]](t), the images of the
// pattern's output node under all embeddings.
func Eval(p *Pattern, t *Tree) []*Node { return match.Eval(p, t) }

// Embeds reports whether the pattern embeds into the document at all.
func Embeds(p *Pattern, t *Tree) bool { return match.Embeds(p, t) }

// Isomorphic reports whether two documents are isomorphic as unordered
// labeled trees (Definition 1).
func Isomorphic(a, b *Tree) bool { return xmltree.Isomorphic(a, b) }

// Detect decides whether the read conflicts with the update under the
// given semantics: polynomial-time for linear read patterns (Section 4 of
// the paper; the update pattern may branch), bounded exhaustive search
// otherwise (Section 5). Positive verdicts carry a verified witness.
func Detect(r Read, u Update, sem Semantics, opts SearchOptions) (Verdict, error) {
	return core.Detect(r, u, sem, opts)
}

// ReadInsertConflict is Detect specialized to a linear read and an insert
// (Theorem 2 / Corollary 2).
func ReadInsertConflict(readPattern *Pattern, ins Insert, sem Semantics) (Verdict, error) {
	return core.ReadInsertLinear(readPattern, ins, sem)
}

// ReadDeleteConflict is Detect specialized to a linear read and a delete
// (Theorem 1 / Corollary 1).
func ReadDeleteConflict(readPattern *Pattern, del Delete, sem Semantics) (Verdict, error) {
	return core.ReadDeleteLinear(readPattern, del, sem)
}

// ReadInsertConflictFast is the single-pass O(|R|·|I|) variant of
// ReadInsertConflict (the practical algorithm the paper's REMARK after
// Theorem 1 suggests): identical verdicts, decided in one reachability
// pass instead of one automata product per read edge.
func ReadInsertConflictFast(readPattern *Pattern, ins Insert, sem Semantics) (Verdict, error) {
	return core.ReadInsertLinearFast(readPattern, ins, sem)
}

// ReadDeleteConflictFast is the single-pass variant of ReadDeleteConflict.
func ReadDeleteConflictFast(readPattern *Pattern, del Delete, sem Semantics) (Verdict, error) {
	return core.ReadDeleteLinearFast(readPattern, del, sem)
}

// DetectorCache is a bounded, concurrency-safe memo of detection
// verdicts keyed by the canonical form of (read pattern, update pattern,
// inserted-tree shape, semantics, search bounds). Share one across
// Detect-heavy workloads — program analysis, batch requests, a server's
// lifetime — to decide each distinct pair once.
type DetectorCache = core.DetectorCache

// NewDetectorCache returns an empty cache holding at most capacity
// verdicts (<= 0 selects a default capacity).
func NewDetectorCache(capacity int) *DetectorCache { return core.NewDetectorCache(capacity) }

// BatchItem is one read/update pair of a DetectBatch call.
type BatchItem = core.BatchItem

// DetectBatch decides every pair over a worker pool (workers <= 0 =
// GOMAXPROCS) sharing cache (nil = a private cache for the call).
// Results are indexed like items and identical to calling Detect on each
// pair alone; opts.Ctx cancels the whole batch.
func DetectBatch(items []BatchItem, opts SearchOptions, workers int, cache *DetectorCache) ([]Verdict, error) {
	return core.DetectBatch(items, opts, workers, cache)
}

// BatchResult is one item's outcome in a DetectBatchResults call: the
// verdict, or that item's own failure (a contained panic arrives as a
// *InternalError).
type BatchResult = core.BatchResult

// DetectBatchResults is DetectBatch with per-item fault containment:
// each item's failure — including a panic inside the detector — lands in
// its own slot instead of aborting the batch. The batch-level error is
// non-nil only for batch-wide conditions (opts.Ctx cancellation).
func DetectBatchResults(items []BatchItem, opts SearchOptions, workers int, cache *DetectorCache) ([]BatchResult, error) {
	return core.DetectBatchResults(items, opts, workers, cache)
}

// InternalError is a panic contained at one of the engine's isolation
// boundaries (batch worker, analysis pair, verdict-cache leader),
// carrying the recovered value and the captured stack.
type InternalError = core.InternalError

// StepBudget is a shared, concurrency-safe bound on total search work:
// thread one through SearchOptions.Steps (see SearchOptions.WithSteps)
// to cap the candidates examined across a whole batch or analysis.
// Exhaustion degrades searches to incomplete verdicts with Reason =
// ReasonStepBudget; it never errors.
type StepBudget = core.StepBudget

// NewStepBudget returns a budget of n search steps.
func NewStepBudget(n int64) *StepBudget { return core.NewStepBudget(n) }

// Machine-readable reasons an incomplete Verdict carries in
// Verdict.Reason; complete verdicts have an empty Reason.
const (
	ReasonCandidateCap = core.ReasonCandidateCap
	ReasonNodeCap      = core.ReasonNodeCap
	ReasonDeadline     = core.ReasonDeadline
	ReasonStepBudget   = core.ReasonStepBudget
	ReasonCanceled     = core.ReasonCanceled
	ReasonNoBound      = core.ReasonNoBound
)

// IsConflictWitness reports whether the given document witnesses a
// conflict between the read and the update under the given semantics
// (Lemma 1; polynomial time).
func IsConflictWitness(sem Semantics, r Read, u Update, t *Tree) (bool, error) {
	return ops.ConflictWitness(sem, r, u, t)
}

// ShrinkWitness minimizes a node-conflict witness using the marking and
// reparenting machinery of Section 5.1.1; the result still witnesses the
// conflict and its size is bounded per Lemma 11.
func ShrinkWitness(w *Tree, r Read, u Update) (*Tree, error) {
	return core.ShrinkWitness(w, r, u)
}

// Contained reports whether pattern p is contained in pattern q
// (Definition 11): every document with an embedding of p also has one of
// q. When not contained, a counterexample document is returned.
func Contained(p, q *Pattern) (bool, *Tree) { return containment.Contained(p, q) }

// EquivalentPatterns reports whether two patterns are equivalent as
// Boolean filters (contained in both directions).
func EquivalentPatterns(p, q *Pattern) bool { return containment.Equivalent(p, q) }

// MinimizePattern removes redundant predicate branches (the tree-pattern
// minimization of Amer-Yahia et al., which the paper cites): the result
// selects exactly the same nodes on every document, with fewer
// constraints to match.
func MinimizePattern(p *Pattern) *Pattern { return containment.Minimize(p) }

// ReduceNonContainmentToInsert builds the Theorem 4 instance: the returned
// read and insert conflict iff p is NOT contained in q.
func ReduceNonContainmentToInsert(p, q *Pattern) (Read, Insert) {
	return containment.ReduceToReadInsert(p, q)
}

// ReduceNonContainmentToDelete builds the Theorem 6 instance: the returned
// read and delete conflict iff p is NOT contained in q.
func ReduceNonContainmentToDelete(p, q *Pattern) (Read, Delete) {
	return containment.ReduceToReadDelete(p, q)
}

// ReductionWitnessInsert assembles the Figure 7d conflict witness for the
// Theorem 4 instance of (p, q) from a containment counterexample (a tree
// embedding p but not q, e.g. the one Contained returns).
func ReductionWitnessInsert(p, q *Pattern, counterexample *Tree) *Tree {
	return containment.ReductionWitnessInsert(p, q, counterexample)
}

// ReductionWitnessDelete assembles the Figure 8c conflict witness for the
// Theorem 6 instance of (p, q) from a containment counterexample.
func ReductionWitnessDelete(p, q *Pattern, counterexample *Tree) *Tree {
	return containment.ReductionWitnessDelete(p, q, counterexample)
}

// UpdateUpdateConflict decides the Section 6 notion of conflict between
// two updates: they conflict when some tree exists on which the two
// application orders yield non-isomorphic results (value semantics).
// Identical and provably independent updates are decided statically;
// otherwise a bounded witness search runs.
func UpdateUpdateConflict(u1, u2 Update, opts SearchOptions) (Verdict, error) {
	return core.UpdateUpdateConflict(u1, u2, opts)
}

// UpdatesIndependent reports a sound sufficient condition for two updates
// to commute on every document.
func UpdatesIndependent(u1, u2 Update, opts SearchOptions) (bool, string, error) {
	return core.UpdatesIndependent(u1, u2, opts)
}

// Schema is an unordered DTD: per-element multiplicity constraints on
// child labels (the Section 6 "Schema Information" extension).
type Schema = schema.Schema

// ParseSchema parses the textual schema format (see package
// internal/schema for the grammar: "root inventory", "book: title
// quantity publisher?", ...).
func ParseSchema(src string) (*Schema, error) { return schema.Parse(src) }

// MustParseSchema is ParseSchema that panics on error.
func MustParseSchema(src string) *Schema { return schema.MustParse(src) }

// DetectUnderSchema decides whether the read and update conflict on some
// SCHEMA-VALID document: sound polynomial pruning first, then bounded
// search over valid trees. The paper leaves the exact complexity open,
// so negative search verdicts are reported incomplete.
func DetectUnderSchema(r Read, u Update, sem Semantics, s *Schema, opts SearchOptions) (Verdict, error) {
	return schema.DetectUnderSchema(r, u, sem, s, opts)
}

// ParseProgram parses a pidgin update program (doc/read/insert/delete
// statements, Section 1 of the paper).
func ParseProgram(src string) (*Program, error) { return program.Parse(src) }

// AnalyzeProgram computes the statement dependence relation of a program
// using the conflict detector, enabling the code motion and common
// subexpression elimination the paper motivates.
func AnalyzeProgram(p *Program, opts AnalyzeOptions) (*ProgramAnalysis, error) {
	return program.Analyze(p, opts)
}

// OptimizedProgram is the result of OptimizeProgram: the rewritten
// program and the rewrites applied.
type OptimizedProgram = program.Optimized

// ProgramSchedule is a staged execution plan in which each stage's
// statements are pairwise independent (ProgramAnalysis.ParallelSchedule).
type ProgramSchedule = program.Schedule

// OptimizeProgram applies the two conflict-detector-justified rewrites of
// Section 1 — hoisting reads above independent updates and eliminating
// repeated reads — and returns the behaviorally equivalent program.
func OptimizeProgram(p *Program, opts AnalyzeOptions) (*OptimizedProgram, error) {
	return program.Optimize(p, opts)
}
