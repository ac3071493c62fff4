package main

import (
	"fmt"
	"math"
	"slices"

	"skydiver"
)

const (
	mixedRows  = 100_000
	mixedDims  = 4
	mixedSeeds = 2 // hash seeds, so 2 resident fingerprints serve every query
	mixedKMin  = 5
	mixedKMax  = 25
	// mixedWarmQueries cached queries follow the fingerprint builds in
	// set-up, so the timed loop starts on a warm connection and heap.
	mixedWarmQueries = 100
	// mixedMaxOpsPerSecond sizes the generated sequence well above the
	// request rate the serving workload reaches.
	mixedMaxOpsPerSecond = 5000
)

// runAntMixedHTTP drives the serving tier over loopback HTTP with cached
// MinHash and LSH queries beside single-point inserts and deletes. After
// set-up Phase 1 never runs: mutations patch the resident fingerprints
// forward instead of dropping them.
func runAntMixedHTTP(e *env) (*outcome, error) {
	nOps := int(e.dur.Seconds()*mixedMaxOpsPerSecond) + 1
	plan := planMixed(e.seed, nOps, mixedRows, mixedSeeds, mixedKMin, mixedKMax)
	pts, err := skydiver.Generate(skydiver.Anticorrelated, max(plan.inserts, 1), mixedDims, plan.insertSeed)
	if err != nil {
		return nil, err
	}
	insertPaths := make([]string, plan.inserts)
	for i := range insertPaths {
		insertPaths[i] = insertPath(pts.Point(i))
	}
	pts.Close()

	m := 0
	var ds *skydiver.Dataset
	svc, setups, err := repeatSetup(func() (*service, error) {
		root := e.rec.begin("setup", 0)
		defer root.end()
		d, size, err := buildDataset(e.rec, root.id, skydiver.Anticorrelated, mixedRows, mixedDims, skydiver.StorageSimulated)
		if err != nil {
			return nil, err
		}
		sp := e.rec.begin("server.start", root.id)
		s, err := startService(e.rec, d)
		sp.end()
		if err != nil {
			d.Close()
			return nil, err
		}
		sp = e.rec.begin("warmup", root.id)
		err = warmMixed(s, plan.seeds)
		sp.end()
		if err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		m, ds = size, d
		return s, nil
	}, func(s *service) { s.close() })
	if err != nil {
		return nil, err
	}
	defer svc.close()
	out := &outcome{
		input: fmt.Sprintf("ANT-100K-4D (skyline %d) behind the HTTP server; %.0f%% MH, %.0f%% LSH queries (k in [%d,%d], %d hash seeds), %.0f%% inserts, the rest deletes",
			m, 100*shareMH, 100*shareLSH, mixedKMin, mixedKMax, mixedSeeds, 100*shareInsert),
		setups: setups,
	}

	var mhCPU, lshCPU []float64
	queries, phase1, faults := 0, 0, int64(0)
	out.loop = closedLoop(e, len(plan.ops), loopHooks{
		do: func(i int, traced bool) (bool, error) {
			op := plan.ops[i]
			switch op.kind {
			case opMH, opLSH:
				algo := "mh"
				if op.kind == opLSH {
					algo = "lsh"
				}
				r, err := svc.query(algo, op.k, op.seed, "", traced)
				if err != nil {
					return false, err
				}
				queries++
				faults += r.PageFaults
				switch {
				case !r.FingerprintCached:
					phase1++
				case op.kind == opMH:
					mhCPU = append(mhCPU, r.CPUSeconds*1000)
				default:
					lshCPU = append(lshCPU, r.CPUSeconds*1000)
				}
				return false, nil
			case opInsert:
				_, err := svc.insert(insertPaths[op.point], traced)
				return true, err
			default:
				return true, svc.remove(op.row, traced)
			}
		},
		counters: func() cacheCounters { return readCounters(ds) },
	})

	// On the mutated dataset, every cached query shape must equal its
	// uncached re-run. The pair's CPU-time difference is Phase 1's cost.
	var siggen []float64
	for _, seed := range plan.seeds {
		for _, algo := range []string{"mh", "lsh"} {
			cached, err := svc.query(algo, mixedKMax, seed, "", false)
			out.extra(err)
			fresh, err2 := svc.query(algo, mixedKMax, seed, "&nocache=1", false)
			out.extra(err2)
			if err != nil || err2 != nil {
				continue
			}
			if !slices.Equal(cached.Indexes, fresh.Indexes) || !sameObjective(cached.Objective, fresh.Objective) {
				out.mismatch("%s seed %d: cached %v, uncached %v", algo, seed, cached.Indexes, fresh.Indexes)
			}
			siggen = append(siggen, (fresh.CPUSeconds-cached.CPUSeconds)*1000)
		}
	}
	if !e.rec.on {
		return out, nil
	}
	out.layers = map[string]float64{
		"skyline.size":           float64(m),
		"core.siggen_ms":         median(siggen),
		"core.siggen_share":      float64(phase1) / float64(max(queries, 1)) * median(siggen) / median(out.loop.queries),
		"core.select_ms":         median(mhCPU),
		"core.select_lsh_ms":     median(lshCPU),
		"pager.faults_per_query": float64(faults) / float64(max(queries, 1)),
		"server.phase_cpu_ms":    median(svc.cpuMillis),
	}
	return out, nil
}

// warmMixed builds the fingerprint of every hash seed, then issues cached
// queries over the k range.
func warmMixed(s *service, seeds []int64) error {
	for _, seed := range seeds {
		for _, algo := range []string{"mh", "lsh"} {
			if _, err := s.query(algo, mixedKMax, seed, "", false); err != nil {
				return err
			}
		}
	}
	algos := []string{"mh", "lsh"}
	for j := 0; j < mixedWarmQueries; j++ {
		k := mixedKMin + j%(mixedKMax-mixedKMin+1)
		if _, err := s.query(algos[j%2], k, seeds[j%len(seeds)], "", false); err != nil {
			return err
		}
	}
	return nil
}

func sameObjective(a, b *float64) bool {
	if a == nil || b == nil {
		return a == b
	}
	return math.Float64bits(*a) == math.Float64bits(*b)
}
