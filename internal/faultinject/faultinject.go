// Package faultinject provides named fault-injection sites for chaos
// and robustness testing of the detection engine and the serving path.
//
// A site is a dotted string naming a code location ("core.detect",
// "core.batch.worker", "serve.detect"). The durable document store
// fires at every durability edge so crash tests can kill it mid-commit:
// "store.append" (before a WAL frame is written), "store.append.partial"
// (after the frame header, before the payload — a torn record),
// "store.fsync" (before the log is synced), "store.snapshot.write"
// (mid-snapshot, before the atomic rename), "store.wal.rotate" (after a
// snapshot renamed wal.log into the kept segment, before a new wal.log
// exists), and "store.xfer.install" (a received state transfer
// verified, before the rename that installs it). Production code calls
// Fire(site) at the location; with nothing armed the call is a single
// atomic load and a return — cheap enough to leave compiled into hot
// paths. Tests (or an operator running a chaos drill) arm faults at
// sites with Arm or a compact spec string:
//
//	faultinject.Arm("core.batch.worker", faultinject.Fault{
//		Kind:  faultinject.KindPanic,
//		After: 2,        // skip the first 2 hits
//		Times: 1,        // fire once, then disarm behavior
//	})
//	defer faultinject.Reset()
//
// or, from the environment / a flag (see ArmSpec for the grammar):
//
//	XMLCONFLICT_FAULTS='serve.detect=latency:50ms;core.detect=panic@3x1'
//
// Four fault kinds cover the failure modes a fault-containment layer
// must survive: KindPanic (the site panics), KindError (Fire returns an
// injected error), KindLatency (Fire sleeps, then proceeds), and
// KindCancel (Fire returns an error wrapping context.Canceled, modeling
// a caller that went away).
//
// The registry is global and safe for concurrent use; Reset restores
// the zero-overhead disabled state between tests.
package faultinject

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind selects what an armed fault does when it fires.
type Kind int

const (
	// KindError makes Fire return an *Error for the site.
	KindError Kind = iota
	// KindPanic makes Fire panic with a *Panic value.
	KindPanic
	// KindLatency makes Fire sleep Fault.Delay, then return nil.
	KindLatency
	// KindCancel makes Fire return an error wrapping context.Canceled.
	KindCancel
)

// String names the kind as it appears in specs.
func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindPanic:
		return "panic"
	case KindLatency:
		return "latency"
	case KindCancel:
		return "cancel"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Fault describes one armed fault.
type Fault struct {
	// Kind selects the failure mode.
	Kind Kind
	// Delay is the sleep for KindLatency (ignored otherwise).
	Delay time.Duration
	// After skips the first After hits of the site before firing.
	After int64
	// Times bounds how often the fault fires; 0 means every eligible
	// hit.
	Times int64
}

// Error is the error injected by KindError faults.
type Error struct{ Site string }

func (e *Error) Error() string {
	return fmt.Sprintf("faultinject: injected error at %s", e.Site)
}

// Panic is the value injected panics carry, so containment layers (and
// tests) can recognize a drill.
type Panic struct{ Site string }

func (p *Panic) String() string {
	return fmt.Sprintf("faultinject: injected panic at %s", p.Site)
}

// armed is one site's registration plus its hit accounting.
type armed struct {
	f     Fault
	hits  atomic.Int64 // Fire calls at the site since arming
	fired atomic.Int64 // times the fault actually fired
}

var (
	mu    sync.Mutex
	sites map[string]*armed
	// active gates the fast path: zero means nothing is armed anywhere
	// and Fire returns after one atomic load.
	active atomic.Int32
)

// Enabled reports whether any site is armed.
func Enabled() bool { return active.Load() != 0 }

// Arm registers (or replaces) the fault at a site.
func Arm(site string, f Fault) {
	mu.Lock()
	defer mu.Unlock()
	if sites == nil {
		sites = map[string]*armed{}
	}
	if _, ok := sites[site]; !ok {
		active.Add(1)
	}
	sites[site] = &armed{f: f}
}

// Disarm removes the fault at a site, if any.
func Disarm(site string) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := sites[site]; ok {
		delete(sites, site)
		active.Add(-1)
	}
}

// Reset disarms every site, restoring the zero-overhead state.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	active.Add(-int32(len(sites)))
	sites = nil
}

// Fired reports how many times the site's fault has fired since arming
// (0 when the site is not armed).
func Fired(site string) int64 {
	mu.Lock()
	defer mu.Unlock()
	if a, ok := sites[site]; ok {
		return a.fired.Load()
	}
	return 0
}

// Sites lists the currently armed site names, sorted.
func Sites() []string {
	mu.Lock()
	defer mu.Unlock()
	out := make([]string, 0, len(sites))
	for s := range sites {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Fire is the injection point: production code calls it where a fault
// may be planted. Disarmed (the normal state) it costs one atomic load.
// Armed, it applies the site's fault: panics for KindPanic, sleeps for
// KindLatency, and returns a non-nil error for KindError/KindCancel.
func Fire(site string) error {
	if active.Load() == 0 {
		return nil
	}
	return fire(site)
}

func fire(site string) error {
	mu.Lock()
	a := sites[site]
	mu.Unlock()
	if a == nil {
		return nil
	}
	hit := a.hits.Add(1)
	if hit <= a.f.After {
		return nil
	}
	if a.f.Times > 0 {
		// Claim a firing slot atomically so concurrent hits cannot
		// overshoot the bound.
		for {
			cur := a.fired.Load()
			if cur >= a.f.Times {
				return nil
			}
			if a.fired.CompareAndSwap(cur, cur+1) {
				break
			}
		}
	} else {
		a.fired.Add(1)
	}
	switch a.f.Kind {
	case KindPanic:
		panic(&Panic{Site: site})
	case KindLatency:
		time.Sleep(a.f.Delay)
		return nil
	case KindCancel:
		return fmt.Errorf("faultinject: injected cancelation at %s: %w", site, context.Canceled)
	default:
		return &Error{Site: site}
	}
}

// EnvVar is the environment variable ArmFromEnv (and package init)
// reads a spec from.
const EnvVar = "XMLCONFLICT_FAULTS"

func init() {
	// Arming from the environment lets chaos drills target built
	// binaries (the daemon, the CLIs) without a rebuild. A malformed
	// spec is a configuration error worth hearing about, but not worth
	// refusing to start over.
	if err := ArmFromEnv(); err != nil {
		fmt.Fprintf(os.Stderr, "faultinject: %v\n", err)
	}
}

// ArmFromEnv arms the spec in $XMLCONFLICT_FAULTS, if any.
func ArmFromEnv() error {
	spec := os.Getenv(EnvVar)
	if spec == "" {
		return nil
	}
	return ArmSpec(spec)
}

// ArmSpec arms faults from a compact spec: semicolon- (or comma-)
// separated entries of the form
//
//	<site>=<kind>[:<delay>][@<after>][x<times>]
//
// where kind is panic, error, cancel, or latency (latency requires the
// :<delay> suffix, e.g. latency:50ms). @<after> skips the first N hits;
// x<times> bounds firings. Examples:
//
//	core.detect=panic
//	serve.detect=latency:50ms;core.batch.worker=error@2x1
func ArmSpec(spec string) error {
	for _, entry := range strings.FieldsFunc(spec, func(r rune) bool { return r == ';' || r == ',' }) {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		site, rhs, ok := strings.Cut(entry, "=")
		if !ok || site == "" || rhs == "" {
			return fmt.Errorf("bad fault entry %q (want site=kind[:delay][@after][xN])", entry)
		}
		f, err := parseFault(rhs)
		if err != nil {
			return fmt.Errorf("site %s: %w", site, err)
		}
		Arm(strings.TrimSpace(site), f)
	}
	return nil
}

func parseFault(s string) (Fault, error) {
	var f Fault
	if i := strings.LastIndexByte(s, 'x'); i > 0 && isDigits(s[i+1:]) {
		n, err := strconv.ParseInt(s[i+1:], 10, 64)
		if err != nil {
			return f, fmt.Errorf("bad times %q", s[i+1:])
		}
		f.Times = n
		s = s[:i]
	}
	if i := strings.IndexByte(s, '@'); i >= 0 {
		n, err := strconv.ParseInt(s[i+1:], 10, 64)
		if err != nil {
			return f, fmt.Errorf("bad after %q", s[i+1:])
		}
		f.After = n
		s = s[:i]
	}
	kind, delay, hasDelay := strings.Cut(s, ":")
	switch kind {
	case "panic":
		f.Kind = KindPanic
	case "error":
		f.Kind = KindError
	case "cancel":
		f.Kind = KindCancel
	case "latency":
		f.Kind = KindLatency
		if !hasDelay {
			return f, fmt.Errorf("latency needs a delay (latency:50ms)")
		}
		d, err := time.ParseDuration(delay)
		if err != nil {
			return f, fmt.Errorf("bad latency delay %q: %w", delay, err)
		}
		f.Delay = d
		return f, nil
	default:
		return f, fmt.Errorf("unknown fault kind %q (want panic, error, cancel, or latency:<dur>)", kind)
	}
	if hasDelay {
		return f, fmt.Errorf("%s takes no delay", kind)
	}
	return f, nil
}

func isDigits(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}
