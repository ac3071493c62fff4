package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"skydiver"
)

// dataSeed seeds every workload's dataset. The dataset is part of the
// workload's definition; the workload seed varies the op sequence. Drawing
// the data from the workload seed too would move the skyline size, and with
// it the Phase-1 work of every query, from seed to seed.
const dataSeed = 1

const (
	// libShapes option sets per run, so that a run's median does not hang on
	// the cost of a few hash seeds; the oracle checks each.
	libShapes = 24
	libKMin   = 5
	libKMax   = 20
	// libMaxOpsPerSecond sizes the generated sequence well above the
	// fastest query rate the library workloads reach.
	libMaxOpsPerSecond = 1000
	// libServiceOps is how many cached queries, and insert/delete pairs, a
	// traced library run sends through the serving tier to measure its
	// layers.
	libServiceOps = 32
)

type answerFunc func(skydiver.Options) (*skydiver.Result, error)

// libSpec is a library-API workload: MinHash queries with NoCache, so
// every query runs Phase 1.
type libSpec struct {
	label    string
	dist     skydiver.Distribution
	n, dims  int
	storage  skydiver.StorageKind
	useIndex bool
	// oracle returns a function answering an option set on a path the
	// library documents as bit-identical to the measured one, and a
	// function releasing what it built.
	oracle func(s libSpec, ds *skydiver.Dataset) (answerFunc, func(), error)
	// samePageFaults says the oracle's PageFaults must match too.
	samePageFaults bool
}

func runIndIFCold(e *env) (*outcome, error) {
	return runLibrary(e, libSpec{
		label: "IND-40K-4D, SigGen-IF", dist: skydiver.Independent, n: 40_000, dims: 4,
		oracle: func(_ libSpec, ds *skydiver.Dataset) (answerFunc, func(), error) {
			return func(o skydiver.Options) (*skydiver.Result, error) {
				o.Shards = 2
				return ds.Diversify(o)
			}, func() {}, nil
		},
	})
}

func runAntIBFile(e *env) (*outcome, error) {
	return runLibrary(e, libSpec{
		label: "ANT-25K-4D, SigGen-IB on a file-backed index", dist: skydiver.Anticorrelated, n: 25_000, dims: 4,
		storage: skydiver.StorageFile, useIndex: true, samePageFaults: true,
		oracle: func(s libSpec, _ *skydiver.Dataset) (answerFunc, func(), error) {
			// Built like the measured dataset, so that no query's session
			// also runs BBS and warms its own buffer pool.
			twin, _, err := buildDataset(newRecorder(false), 0, s.dist, s.n, s.dims, skydiver.StorageSimulated)
			if err != nil {
				return nil, nil, err
			}
			return twin.Diversify, func() { twin.Close() }, nil
		},
	})
}

// buildDataset generates a workload dataset, builds its index on the given
// storage and computes its skyline, recording one span per layer under
// parent. It returns the skyline size.
func buildDataset(rec *recorder, parent int64, dist skydiver.Distribution, n, dims int, storage skydiver.StorageKind) (*skydiver.Dataset, int, error) {
	sp := rec.begin("data.generate", parent)
	ds, err := skydiver.Generate(dist, n, dims, dataSeed)
	sp.end()
	if err != nil {
		return nil, 0, err
	}
	fail := func(err error) (*skydiver.Dataset, int, error) {
		ds.Close()
		return nil, 0, err
	}
	if err := ds.SetStorage(storage); err != nil {
		return fail(err)
	}
	sp = rec.begin("rtree.bulk_load", parent)
	// A zero fault policy builds the index and installs no injector.
	err = ds.InjectFaults(skydiver.FaultPolicy{})
	sp.end()
	if err != nil {
		return fail(err)
	}
	sp = rec.begin("skyline.bbs", parent)
	m, err := ds.SkylineSize()
	sp.end()
	if err != nil {
		return fail(err)
	}
	return ds, m, nil
}

// sameAnswer compares the selection and its objective, and the page faults
// when faults is set.
func sameAnswer(a, b *skydiver.Result, faults bool) bool {
	return slices.Equal(a.Indexes, b.Indexes) &&
		math.Float64bits(a.ObjectiveValue) == math.Float64bits(b.ObjectiveValue) &&
		(!faults || a.PageFaults == b.PageFaults)
}

func runLibrary(e *env, s libSpec) (*outcome, error) {
	nOps := int(e.dur.Seconds()*libMaxOpsPerSecond) + 1
	plan := planLibrary(e.seed, libShapes, nOps, nOps/2+1, libKMin, libKMax)
	opts := func(sh shape) skydiver.Options {
		return skydiver.Options{K: sh.K, Seed: sh.Seed, UseIndex: s.useIndex, NoCache: true}
	}
	m := 0
	ds, setups, err := repeatSetup(func() (*skydiver.Dataset, error) {
		root := e.rec.begin("setup", 0)
		defer root.end()
		d, size, err := buildDataset(e.rec, root.id, s.dist, s.n, s.dims, s.storage)
		if err != nil {
			return nil, err
		}
		sp := e.rec.begin("warmup", root.id)
		_, err = d.Diversify(opts(plan.shapes[0]))
		sp.end()
		if err != nil {
			d.Close()
			return nil, fmt.Errorf("warm-up query: %w", err)
		}
		m = size
		return d, nil
	}, func(d *skydiver.Dataset) { d.Close() })
	if err != nil {
		return nil, err
	}
	defer ds.Close()
	out := &outcome{
		input:  fmt.Sprintf("%s (skyline %d), MinHash NoCache, k in [%d,%d], %d option sets", s.label, m, libKMin, libKMax, libShapes),
		setups: setups,
	}

	results := make([]*skydiver.Result, len(plan.ops))
	var siggen, share, sel, selLSH []float64
	probes := 0
	call := func(name string, o skydiver.Options) (*skydiver.Result, time.Duration, error) {
		sp := e.rec.begin(name, 0)
		t0 := time.Now()
		r, err := ds.Diversify(o)
		wall := time.Since(t0)
		sp.end()
		out.extra(err)
		return r, wall, err
	}
	out.loop = closedLoop(e, len(plan.ops), loopHooks{
		do: func(i int, traced bool) (bool, error) {
			var sp openSpan
			if traced {
				sp = e.rec.begin("library.query", 0)
			}
			r, err := ds.Diversify(opts(plan.shapes[plan.ops[i]]))
			sp.end()
			results[i] = r
			return false, err
		},
		// Phase 1's cost is the CPU time of a fingerprint-cache miss minus
		// that of a hit on the same options, and its share is that cost
		// over the miss's wall time; the hit's CPU time is Phase 2. A fresh
		// hash seed makes the first call a miss.
		probe: func(i int) {
			o := opts(plan.shapes[plan.ops[i]])
			o.NoCache, o.Seed = false, plan.probeSeeds[probes]
			probes++
			miss, missWall, err := call("probe.miss", o)
			if err != nil {
				return
			}
			hit, _, err := call("probe.hit", o)
			if err != nil {
				return
			}
			o.Algorithm = skydiver.LSH
			lsh, _, err := call("probe.lsh_hit", o)
			if err != nil {
				return
			}
			if miss.FingerprintCached || !hit.FingerprintCached || !lsh.FingerprintCached {
				out.extra(fmt.Errorf("split probe: fingerprint cache served miss=%v hit=%v lsh=%v, want false, true, true",
					miss.FingerprintCached, hit.FingerprintCached, lsh.FingerprintCached))
				return
			}
			if !sameAnswer(miss, hit, false) {
				out.mismatch("a cache hit answered differently from the build that filled the cache")
			}
			siggen = append(siggen, millis(miss.CPUTime-hit.CPUTime))
			share = append(share, float64(miss.CPUTime-hit.CPUTime)/float64(missWall))
			sel = append(sel, millis(hit.CPUTime))
			selLSH = append(selLSH, millis(lsh.CPUTime))
		},
		counters: func() cacheCounters { return readCounters(ds) },
	})

	// Every run of an option set must give its first answer, and the first
	// answer must equal the oracle's.
	first := make(map[int]*skydiver.Result)
	queries, faults := 0, int64(0)
	for i := 0; i < out.loop.attempted; i++ {
		r := results[i]
		if r == nil {
			continue
		}
		queries++
		faults += r.PageFaults
		sh := plan.ops[i]
		if f, ok := first[sh]; !ok {
			first[sh] = r
		} else if !sameAnswer(f, r, s.samePageFaults) {
			out.mismatch("op %d: option set %d answered differently from its first run", i, sh)
		}
	}
	ask, done, err := s.oracle(s, ds)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	used := make([]int, 0, len(first))
	for sh := range first {
		used = append(used, sh)
	}
	sort.Ints(used)
	for _, sh := range used {
		want, err := ask(opts(plan.shapes[sh]))
		out.extra(err)
		if err == nil && !sameAnswer(first[sh], want, s.samePageFaults) {
			out.mismatch("option set %d: got %v (faults %d), oracle %v (faults %d)",
				sh, first[sh].Indexes, first[sh].PageFaults, want.Indexes, want.PageFaults)
		}
	}
	done()

	if !e.rec.on {
		return out, nil
	}
	phaseCPU, err := libraryService(e, out, ds, plan, s)
	if err != nil {
		return nil, err
	}
	out.layers = map[string]float64{
		"skyline.size":           float64(m),
		"core.siggen_ms":         median(siggen),
		"core.siggen_share":      median(share),
		"core.select_ms":         median(sel),
		"core.select_lsh_ms":     median(selLSH),
		"pager.faults_per_query": float64(faults) / float64(max(queries, 1)),
		"server.phase_cpu_ms":    phaseCPU,
	}
	return out, nil
}

// libraryService measures the serving tier over a library workload's
// dataset: one untraced query fills the fingerprint cache, then
// libServiceOps traced cache hits of that query and libServiceOps traced
// insert/delete pairs go over loopback HTTP, so the handler and wire times
// are the server's own and not Phase 1's. It hands ds to the service, which
// closes it. It returns the median cpu_seconds of the traced replies, in
// milliseconds.
func libraryService(e *env, out *outcome, ds *skydiver.Dataset, plan libraryPlan, s libSpec) (float64, error) {
	svc, err := startService(e.rec, ds)
	if err != nil {
		return 0, err
	}
	extra := ""
	if s.useIndex {
		extra = "&index=1"
	}
	sh := plan.shapes[0]
	_, err = svc.query("mh", sh.K, sh.Seed, extra, false)
	out.extra(err)
	for j := 0; err == nil && j < libServiceOps; j++ {
		r, qerr := svc.query("mh", sh.K, sh.Seed, extra, true)
		if qerr == nil && !r.FingerprintCached {
			qerr = fmt.Errorf("serving epilogue: query %d missed the fingerprint cache", j)
		}
		out.extra(qerr)
	}
	for j := 0; j < libServiceOps; j++ {
		row, err := svc.insert(insertPath(ds.Point(j)), true)
		out.extra(err)
		if err == nil {
			out.extra(svc.remove(row, true))
		}
	}
	if err := svc.close(); err != nil {
		return 0, err
	}
	return median(svc.cpuMillis), nil
}
