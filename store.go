package xmlconflict

// The durable document store facade: a write-ahead-logged, snapshotting
// store of named XML trees whose READ/INSERT/DELETE submissions are
// admitted through the conflict detector (optimistic
// commute-or-conflict scheduling per document). See internal/store for
// the full durability and recovery contract.

import (
	"strings"

	"xmlconflict/internal/store"
	"xmlconflict/internal/xmltree"
)

// DocStore is a durable, conflict-scheduled store of named XML
// documents. Safe for concurrent use.
type DocStore = store.Store

// StoreOptions configures OpenStore; the zero value fsyncs on every
// commit and snapshots only on demand.
type StoreOptions = store.Options

// StoreOp is one submitted operation: Kind "read", "insert", or
// "delete", an XPath Pattern, an optional fragment X, the admission
// Semantics for reads, and the optimistic BaseLSN (0 = current state).
type StoreOp = store.Op

// StoreResult reports a committed or evaluated operation: the
// document's LSN and AHU digest afterwards, insertion/deletion point
// count, and (for reads) the matched subtrees' canonical XML.
type StoreResult = store.Result

// DocInfo describes a stored document.
type DocInfo = store.Info

// StoreConflictError is the machine-readable admission rejection: the
// committed update the operation collided with and which conflict
// semantics (node/tree/value) fired.
type StoreConflictError = store.ConflictError

// FsyncPolicy selects when a store commit becomes durable.
type FsyncPolicy = store.FsyncPolicy

const (
	// FsyncAlways acknowledges a commit after an fsync that covers
	// it; commits waiting together share one.
	FsyncAlways = store.FsyncAlways
	// FsyncNever leaves durability to the OS page cache.
	FsyncNever = store.FsyncNever
)

// Store admission sentinels, matchable with errors.Is.
var (
	// ErrDocNotFound: the named document is not in the store.
	ErrDocNotFound = store.ErrNotFound
	// ErrDocExists: Create on an already-registered id.
	ErrDocExists = store.ErrExists
	// ErrStaleBase: the BaseLSN predates the admission window.
	ErrStaleBase = store.ErrStaleBase
	// ErrFutureBase: the BaseLSN is beyond the store's LSN.
	ErrFutureBase = store.ErrFutureBase
	// ErrStoreClosed: the store has been closed (or fail-stopped).
	ErrStoreClosed = store.ErrClosed
)

// OpenStore loads (or initializes) a durable document store rooted at
// dir, recovering from its snapshots and write-ahead log.
func OpenStore(dir string, opts StoreOptions) (*DocStore, error) {
	return store.Open(dir, opts)
}

// ParseLimits bounds XML parsing: maximum element depth, node count,
// and input bytes. The zero value is unbounded; ParseXML/ParseXMLString
// apply DefaultParseLimits.
type ParseLimits = xmltree.ParseLimits

// ParseLimitError is the typed rejection of input past a ParseLimits
// bound; its Limit field names the dimension ("depth", "nodes",
// "bytes").
type ParseLimitError = xmltree.LimitError

// DefaultParseLimits are the bounds Parse applies when none are given:
// generous for documents, fatal for billion-laughs-style bombs.
func DefaultParseLimits() ParseLimits { return xmltree.DefaultParseLimits() }

// ParseXMLLimited parses with explicit limits instead of the defaults.
func ParseXMLLimited(s string, lim ParseLimits) (*Tree, error) {
	return xmltree.ParseWithLimits(strings.NewReader(s), lim)
}
