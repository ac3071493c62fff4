package main

import (
	"runtime"
	"time"

	"skydiver"
)

// cacheCounters are the library's cumulative cache counters for one dataset.
type cacheCounters struct {
	decodes, decodeHits        int64
	fpBuilds, fpHits, fpMisses int64
}

func readCounters(ds *skydiver.Dataset) cacheCounters {
	dc, fc := ds.DecodeCacheStats(), ds.FingerprintCacheStats()
	return cacheCounters{dc.Decodes, dc.Hits, fc.Builds, fc.Hits, fc.Misses}
}

func (c *cacheCounters) add(before, after cacheCounters) {
	c.decodes += after.decodes - before.decodes
	c.decodeHits += after.decodeHits - before.decodeHits
	c.fpBuilds += after.fpBuilds - before.fpBuilds
	c.fpHits += after.fpHits - before.fpHits
	c.fpMisses += after.fpMisses - before.fpMisses
}

// loopHooks are a workload's parts of the closed loop.
type loopHooks struct {
	// do issues op i and reports whether it was a write. traced ops record
	// spans; the loop times every op.
	do func(i int, traced bool) (write bool, err error)
	// probe, if set, runs untimed after each successful traced op.
	probe func(i int)
	// counters, if set, reads the dataset's cache counters; a traced run
	// sums their change across the ops alone.
	counters func() cacheCounters
}

// loopResult is what the timed loop measured. Latencies are milliseconds of
// successful ops; failed ops count only in failed.
type loopResult struct {
	attempted, failed int
	firstErr          error
	queries, writes   []float64 // untraced ops
	tracedQueries     []float64
	elapsed           time.Duration
	exhausted         bool // the op sequence ended before the window did
	// peakRSSMB is the process's peak RSS when the loop ended, read before
	// the oracle and the traced epilogue allocate anything of their own.
	peakRSSMB float64
	rssErr    error
	// Traced runs only: runtime metrics and cache counters summed over the
	// ops, probes excluded.
	rt       rtTotals
	counters cacheCounters
}

// closedLoop issues ops 0, 1, ... one at a time, each after the previous one
// returned, until the window passes or the n ops run out. In a traced run
// every second op is traced, so traced and untraced latencies come from the
// same interleaved sequence and their ratio is the tracing overhead.
func closedLoop(e *env, n int, h loopHooks) loopResult {
	runtime.GC()
	var res loopResult
	start := time.Now()
	deadline := start.Add(e.dur)
	i := 0
	for ; i < n && time.Now().Before(deadline); i++ {
		traced := e.rec.on && i%2 == 1
		var rtBefore rtSample
		var cBefore cacheCounters
		if e.rec.on {
			if h.counters != nil {
				cBefore = h.counters()
			}
			rtBefore = readRuntime()
		}
		t0 := time.Now()
		write, err := h.do(i, traced)
		lat := millis(time.Since(t0))
		if e.rec.on {
			res.rt.add(rtBefore, readRuntime())
			if h.counters != nil {
				res.counters.add(cBefore, h.counters())
			}
		}
		res.attempted++
		if err != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = err
			}
			continue
		}
		switch {
		case !traced && write:
			res.writes = append(res.writes, lat)
		case !traced:
			res.queries = append(res.queries, lat)
		case !write:
			res.tracedQueries = append(res.tracedQueries, lat)
		}
		if traced && h.probe != nil {
			h.probe(i)
		}
	}
	res.elapsed = time.Since(start)
	res.exhausted = i == n
	res.peakRSSMB, res.rssErr = peakRSSMB()
	return res
}

// repeatSetup builds the workload's state setupRepeats times, timing each
// build, and keeps the last: setup_s is the median. Each discarded instance
// is released and collected before the next build starts.
func repeatSetup[T any](build func() (T, error), discard func(T)) (T, []time.Duration, error) {
	var last T
	var times []time.Duration
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			discard(last)
			runtime.GC()
		}
		t0 := time.Now()
		v, err := build()
		if err != nil {
			var zero T
			return zero, nil, err
		}
		times = append(times, time.Since(t0))
		last = v
	}
	return last, times, nil
}
