// Command perfbench is the repository benchmark. It runs one named workload
// in this process against the skydiver library or its HTTP serving tier,
// driven by a single closed-loop client whose op sequence is generated from
// --seed, checks every answer against an in-process oracle, and prints one
// JSON object as the last line of standard output: the end-to-end metrics,
// or with --trace 1 the per-layer metrics of a traced run.
//
// Run it from the repository root through the launcher, which builds it:
//
//	bash perfbench/run.sh --workload ind-if-cold --seed 1 --seconds 50 --trace 0
//
// The exit code is 0 only when every operation succeeded and every answer
// matched its oracle.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// watchdog bounds a whole run, so a hung workload fails instead of stalling
// the caller.
const watchdog = 170 * time.Second

// setupRepeats is how many times a run sets its workload up; setup_s is the
// median, and only the last instance is measured.
const setupRepeats = 9

type workload struct {
	name string
	run  func(*env) (*outcome, error)
}

var workloads = []workload{
	{"ind-if-cold", runIndIFCold},
	{"ant-ib-file", runAntIBFile},
	{"ant-mixed-http", runAntMixedHTTP},
}

// env is what a workload run receives.
type env struct {
	seed int64
	dur  time.Duration
	rec  *recorder
}

// outcome is what a workload run hands back.
type outcome struct {
	input  string // the dataset and query shape, for the report
	setups []time.Duration
	loop   loopResult
	// extra counts the operations outside the timed loop (oracle checks,
	// traced-run probes); they count as attempted and may fail too.
	extraAttempted, extraFailed int
	// mismatches counts answers that differ from their oracle.
	mismatches int
	firstErr   error
	// layers holds the per-layer values the workload measures itself; the
	// runner adds the ones derived from spans and the runtime.
	layers map[string]float64
}

func (o *outcome) extra(err error) {
	o.extraAttempted++
	if err != nil {
		o.extraFailed++
		if o.firstErr == nil {
			o.firstErr = err
		}
	}
}

func (o *outcome) mismatch(format string, args ...any) {
	o.mismatches++
	if o.firstErr == nil {
		o.firstErr = fmt.Errorf("oracle mismatch: "+format, args...)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run. The write_* metrics and
// error_ratio are printed in the report above the result line: write
// latencies exist only on the serving workload, and the error ratio is the
// result line's failed/attempted.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"query_p50_ms", "ms"},
	{"query_p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run, reported on every workload. See
// README.md for the end-to-end metric each one is predicted to move.
var perLayer = []metricDef{
	{"data.generate_ms", "ms"},
	{"rtree.bulk_load_ms", "ms"},
	{"rtree.decodes", "1/query"},
	{"rtree.decode_hits", "1/query"},
	{"skyline.bbs_ms", "ms"},
	{"skyline.size", "count"},
	{"core.siggen_ms", "ms"},
	{"core.siggen_share", "1"},
	{"core.fpcache_hit_ratio", "1"},
	{"core.fpcache_builds", "count"},
	{"core.select_ms", "ms"},
	{"core.select_lsh_ms", "ms"},
	{"pager.faults_per_query", "1/query"},
	{"server.query_handler_ms", "ms"},
	{"server.write_handler_ms", "ms"},
	{"server.wire_ms", "ms"},
	{"server.phase_cpu_ms", "ms"},
	{"runtime.alloc_bytes_per_op", "B/op"},
	{"runtime.gc_cpu_share", "1"},
	{"runtime.sched_latency_p99_us", "us"},
	{"trace.overhead_ratio", "1"},
}

func main() {
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", watchdog)
		os.Exit(2)
	})
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fset.SetOutput(stderr)
	name := fset.String("workload", "", "workload to run: ind-if-cold, ant-ib-file or ant-mixed-http")
	seed := fset.Int64("seed", 1, "workload seed; the op sequence is generated from it")
	seconds := fset.Float64("seconds", 10, "length of the timed loop in seconds")
	trace := fset.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (ind-if-cold, ant-ib-file, ant-mixed-http), --seconds > 0 and --trace 0 or 1\n")
		return 2
	}
	e := &env{seed: *seed, dur: time.Duration(*seconds * float64(time.Second)), rec: newRecorder(*trace == 1)}
	meta := hostMeta()
	meta["workload"], meta["seed"], meta["seconds"], meta["trace"] = w.name, fmt.Sprint(*seed), fmt.Sprint(*seconds), fmt.Sprint(*trace)
	out, err := w.run(e)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := out.loop.rssErr; err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	res := result{
		Attempted: out.loop.attempted + out.extraAttempted,
		Failed:    out.loop.failed + out.extraFailed + out.mismatches,
		Metrics:   make(map[string]metric),
	}
	res.Correct = res.Failed == 0
	e2e := endToEndValues(out)
	printReport(stdout, meta, out, e2e, res)
	defs, values := endToEnd, e2e
	if e.rec.on {
		spans := e.rec.snapshot()
		defs, values = perLayer, layerValues(out, spans)
		path := filepath.Join(".bench_out", fmt.Sprintf("%s-seed%d.spans.json", w.name, *seed))
		if err := writeSpans(path, meta, spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: write spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "# %d spans written to %s\n", len(spans), path)
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: %s: metric %s not measured\n", w.name, d.name)
			return 1
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		if e.rec.on {
			fmt.Fprintf(stdout, "%-30s %14.6g %s\n", d.name, v, d.unit)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d operations failed or mismatched; first: %v\n",
			w.name, res.Failed, res.Attempted, firstErr(out))
		return 1
	}
	return 0
}

func firstErr(o *outcome) error {
	if o.firstErr != nil {
		return o.firstErr
	}
	return o.loop.firstErr
}

func endToEndValues(o *outcome) map[string]float64 {
	setups := make([]float64, len(o.setups))
	for i, d := range o.setups {
		setups[i] = d.Seconds()
	}
	l := o.loop
	return map[string]float64{
		"setup_s":      median(setups),
		"query_p50_ms": percentile(l.queries, 0.5),
		"query_p90_ms": percentile(l.queries, 0.9),
		"ops_per_s":    float64(l.attempted-l.failed) / l.elapsed.Seconds(),
		"peak_rss_mb":  l.peakRSSMB,
		"write_p50_ms": percentile(l.writes, 0.5),
		"write_p90_ms": percentile(l.writes, 0.9),
	}
}

// layerValues adds the span- and runtime-derived per-layer metrics to the
// workload's own.
func layerValues(o *outcome, spans []span) map[string]float64 {
	v := make(map[string]float64, len(perLayer))
	for k, x := range o.layers {
		v[k] = x
	}
	v["data.generate_ms"] = median(spanMillis(spans, "data.generate", false))
	v["rtree.bulk_load_ms"] = median(spanMillis(spans, "rtree.bulk_load", false))
	v["skyline.bbs_ms"] = median(spanMillis(spans, "skyline.bbs", false))
	v["server.query_handler_ms"] = median(spanMillis(spans, "server.query", false))
	v["server.write_handler_ms"] = median(spanMillis(spans, "server.write", false))
	wire := append(spanMillis(spans, "client.query", true), spanMillis(spans, "client.write", true)...)
	v["server.wire_ms"] = median(wire)
	l := o.loop
	v["runtime.alloc_bytes_per_op"] = l.rt.allocBytesPerOp()
	v["runtime.gc_cpu_share"] = l.rt.gcShare()
	v["runtime.sched_latency_p99_us"] = l.rt.schedP99Micros()
	v["trace.overhead_ratio"] = median(l.tracedQueries) / median(l.queries)
	v["rtree.decodes"] = perQuery(l.counters.decodes, l)
	v["rtree.decode_hits"] = perQuery(l.counters.decodeHits, l)
	v["core.fpcache_builds"] = float64(l.counters.fpBuilds)
	v["core.fpcache_hit_ratio"] = 0
	if n := l.counters.fpHits + l.counters.fpMisses; n > 0 {
		v["core.fpcache_hit_ratio"] = float64(l.counters.fpHits) / float64(n)
	}
	return v
}

func perQuery(n int64, l loopResult) float64 {
	q := len(l.queries) + len(l.tracedQueries)
	if q == 0 {
		return 0
	}
	return float64(n) / float64(q)
}

func printReport(w io.Writer, meta map[string]string, o *outcome, e2e map[string]float64, res result) {
	keys := make([]string, 0, len(meta))
	for k := range meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, " %s=%s", k, meta[k])
	}
	fmt.Fprintf(w, "# perfbench%s\n", sb.String())
	l := o.loop
	fmt.Fprintf(w, "# input: %s; closed loop, 1 client; %d queries and %d writes timed in %.2fs (untraced), %d traced queries\n",
		o.input, len(l.queries), len(l.writes), l.elapsed.Seconds(), len(l.tracedQueries))
	if l.exhausted {
		fmt.Fprintf(w, "# warning: the generated op sequence ran out before the timed window ended\n")
	}
	if n := len(l.queries); n > 0 && beyond(l.queries, 0.9) < 10 {
		fmt.Fprintf(w, "# warning: only %d of %d queries lie beyond p90\n", beyond(l.queries, 0.9), n)
	}
	row := func(name, unit string) {
		v := e2e[name]
		if math.IsNaN(v) {
			fmt.Fprintf(w, "%-30s %14s %s (no such operations in this workload)\n", name, "n/a", unit)
			return
		}
		fmt.Fprintf(w, "%-30s %14.6g %s\n", name, v, unit)
	}
	row("setup_s", "s")
	row("query_p50_ms", "ms")
	row("query_p90_ms", "ms")
	row("ops_per_s", "1/s")
	row("write_p50_ms", "ms")
	row("write_p90_ms", "ms")
	row("peak_rss_mb", "MB")
	fmt.Fprintf(w, "%-30s %14.6g 1 (%d failed or mismatched of %d attempted)\n",
		"error_ratio", float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
}

// hostMeta identifies where and what was measured.
func hostMeta() map[string]string {
	host, _ := os.Hostname()
	return map[string]string{
		"host":       host,
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"commit":     commit(),
	}
}

// commit is the VCS revision stamped into the binary, or, when the sources
// are not a git checkout, a digest of the Go sources under the working
// directory.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "-dirty"
			}
			return rev
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
