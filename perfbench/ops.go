package main

import "math/rand"

// Op sequences are generated in full from the workload seed before the
// timed loop starts; the program only ever sees the generated inputs.

// shape is one query option set of a library workload.
type shape struct {
	K    int
	Seed int64
}

// libraryPlan is the pre-generated input of a library workload.
type libraryPlan struct {
	// shapes are the distinct option sets; the oracle checks each once.
	shapes []shape
	// ops index shapes in issue order.
	ops []int
	// probeSeeds are hash seeds no op uses, for the traced run's
	// cache-miss/cache-hit split probes.
	probeSeeds []int64
}

// distinctSeeds draws n distinct positive hash seeds not in taken.
func distinctSeeds(rng *rand.Rand, n int, taken map[int64]bool) []int64 {
	out := make([]int64, 0, n)
	for len(out) < n {
		s := rng.Int63()
		if s == 0 || taken[s] {
			continue
		}
		taken[s] = true
		out = append(out, s)
	}
	return out
}

func planLibrary(seed int64, nShapes, nOps, nProbes, kMin, kMax int) libraryPlan {
	rng := rand.New(rand.NewSource(seed))
	taken := make(map[int64]bool)
	var p libraryPlan
	for _, s := range distinctSeeds(rng, nShapes, taken) {
		p.shapes = append(p.shapes, shape{K: kMin + rng.Intn(kMax-kMin+1), Seed: s})
	}
	p.ops = make([]int, nOps)
	for i := range p.ops {
		p.ops[i] = rng.Intn(nShapes)
	}
	p.probeSeeds = distinctSeeds(rng, nProbes, taken)
	return p
}

type opKind int

const (
	opMH opKind = iota
	opLSH
	opInsert
	opDelete
)

// mixedOp is one request of the mixed serving workload.
type mixedOp struct {
	kind  opKind
	k     int   // queries
	seed  int64 // queries: hash seed, one of mixedPlan.seeds
	row   int   // deletes: a row of the initial dataset, never repeated
	point int   // inserts: index into the generated insert points
}

// mixedPlan is the pre-generated input of the mixed serving workload.
type mixedPlan struct {
	// seeds are the hash seeds of the cached query shapes.
	seeds []int64
	ops   []mixedOp
	// insertSeed seeds the generator of the inserted points; inserts is
	// how many the ops use.
	insertSeed int64
	inserts    int
}

// Mixed-workload op shares: the rest of the requests are single-point
// deletes.
const (
	shareMH     = 0.60
	shareLSH    = 0.20
	shareInsert = 0.10
)

// planMixed draws nOps requests over a dataset of nRows initial rows.
// Deletes take distinct rows of the initial dataset without replacement, so
// none targets a row that is already gone; once half the rows are drawn,
// further deletes become MinHash queries.
func planMixed(seed int64, nOps, nRows, nSeeds, kMin, kMax int) mixedPlan {
	rng := rand.New(rand.NewSource(seed))
	p := mixedPlan{seeds: distinctSeeds(rng, nSeeds, make(map[int64]bool))}
	p.insertSeed = rng.Int63()
	perm := rng.Perm(nRows)
	deletes := 0
	p.ops = make([]mixedOp, nOps)
	for i := range p.ops {
		u := rng.Float64()
		op := mixedOp{k: kMin + rng.Intn(kMax-kMin+1), seed: p.seeds[rng.Intn(nSeeds)]}
		switch {
		case u < shareMH:
			op.kind = opMH
		case u < shareMH+shareLSH:
			op.kind = opLSH
		case u < shareMH+shareLSH+shareInsert:
			op.kind = opInsert
			op.point = p.inserts
			p.inserts++
		case deletes < nRows/2:
			op.kind = opDelete
			op.row = perm[deletes]
			deletes++
		default:
			op.kind = opMH
		}
		p.ops[i] = op
	}
	return p
}
