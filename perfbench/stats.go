package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"
)

// percentile returns the p-quantile (0 ≤ p ≤ 1) of xs, interpolating
// linearly between the two closest ranks. xs need not be sorted; an empty
// sample gives NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// beyond counts the samples strictly above the p-quantile: a percentile is
// reported with confidence only when at least ten samples lie beyond it.
func beyond(xs []float64, p float64) int {
	q, n := percentile(xs, p), 0
	for _, x := range xs {
		if x > q {
			n++
		}
	}
	return n
}

func millis(d time.Duration) float64 { return float64(d) / 1e6 }

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// Go runtime metrics read around each measured operation.
var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

// rtSample is one reading of the runtime metrics above.
type rtSample struct {
	allocs          uint64
	gcCPU, totalCPU float64
	sched           *metrics.Float64Histogram
}

func readRuntime() rtSample {
	ss := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	var r rtSample
	if ss[0].Value.Kind() == metrics.KindUint64 {
		r.allocs = ss[0].Value.Uint64()
	}
	if ss[1].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = ss[1].Value.Float64()
	}
	if ss[2].Value.Kind() == metrics.KindFloat64 {
		r.totalCPU = ss[2].Value.Float64()
	}
	if ss[3].Value.Kind() == metrics.KindFloat64Histogram {
		r.sched = ss[3].Value.Float64Histogram()
	}
	return r
}

// rtTotals accumulates runtime-metric deltas over the measured operations
// only, so work outside them (probes, oracle checks) does not count.
type rtTotals struct {
	ops             int
	allocs          uint64
	gcCPU, totalCPU float64
	sched           []uint64
	buckets         []float64
}

func (t *rtTotals) add(before, after rtSample) {
	t.ops++
	t.allocs += after.allocs - before.allocs
	t.gcCPU += after.gcCPU - before.gcCPU
	t.totalCPU += after.totalCPU - before.totalCPU
	if before.sched == nil || after.sched == nil || len(before.sched.Counts) != len(after.sched.Counts) {
		return
	}
	if t.sched == nil {
		t.sched = make([]uint64, len(after.sched.Counts))
		t.buckets = after.sched.Buckets
	}
	for i := range t.sched {
		t.sched[i] += after.sched.Counts[i] - before.sched.Counts[i]
	}
}

func (t *rtTotals) allocBytesPerOp() float64 {
	if t.ops == 0 {
		return 0
	}
	return float64(t.allocs) / float64(t.ops)
}

func (t *rtTotals) gcShare() float64 {
	if t.totalCPU <= 0 {
		return 0
	}
	return t.gcCPU / t.totalCPU
}

// schedP99Micros is the upper edge of the histogram bucket holding the 99th
// percentile of goroutine scheduling latency, in microseconds.
func (t *rtTotals) schedP99Micros() float64 {
	var total uint64
	for _, c := range t.sched {
		total += c
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(0.99 * float64(total)))
	var cum uint64
	for i, c := range t.sched {
		cum += c
		if cum >= want {
			edge := t.buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = t.buckets[i]
			}
			return edge * 1e6
		}
	}
	return 0
}
