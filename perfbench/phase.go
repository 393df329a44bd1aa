package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// phase bounds one timed phase: it runs for seconds, or until opCap
// operations have started when opCap > 0 (the traced run caps its
// operations so the traces it holds stay within a small memory budget).
type phase struct {
	seconds time.Duration
	traced  bool
	opCap   int64
}

// phaseRun is what every timed phase reports, whatever the workload.
type phaseRun struct {
	elapsed    time.Duration // start until the last client returned
	allocBytes uint64        // runtime.MemStats.TotalAlloc delta
	gcPauseNs  uint64        // runtime.MemStats.PauseTotalNs delta
	attempted  int64         // operations started, both clients
	failed     int64         // operations that returned an unexpected error
	errs       []string      // the first few of those errors
}

// answered counts operations answered: a 409 is an answer, a failure
// is not.
func (r phaseRun) answered() int64 { return r.attempted - r.failed }

func (r phaseRun) opsPerSec() float64 { return float64(r.answered()) / r.elapsed.Seconds() }

// tally is one client's operation count and failures.
type tally struct {
	attempted, failed int64
	errs              []string
}

func (t *tally) fail(err error) {
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, err.Error())
	}
}

// addTallies folds the clients' tallies into the phase's run record.
func (r *phaseRun) addTallies(ts ...*tally) {
	for _, t := range ts {
		r.attempted += t.attempted
		r.failed += t.failed
		r.errs = append(r.errs, t.errs...)
	}
}

// merge gathers one latency sample over all clients of a phase.
func merge[C any](cs [clients]*C, pick func(*C) []time.Duration) []time.Duration {
	var all []time.Duration
	for _, c := range cs {
		all = append(all, pick(c)...)
	}
	return all
}

// runClients runs one closed-loop client per stream: client c calls
// do(c, i) for its i-th operation, waiting for each answer before the
// next, until the phase ends. An operation started before the deadline
// runs to completion and counts.
func runClients(p phase, do func(c, i int)) phaseRun {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var started atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Since(start) < p.seconds; i++ {
				if p.opCap > 0 && started.Add(1) > p.opCap {
					return
				}
				do(c, i)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return phaseRun{
		elapsed:    elapsed,
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		gcPauseNs:  after.PauseTotalNs - before.PauseTotalNs,
	}
}

// liveHeapMiB forces a collection and returns the live heap in MiB.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
