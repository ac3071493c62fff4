package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {0.5, 5.5}, {0.9, 9.1}, {1, 10}, {0.25, 3.25},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Errorf("percentile sorted its input in place: %v", xs)
	}
	if got := percentile([]float64{3}, 0.9); got != 3 {
		t.Errorf("percentile of one sample = %v, want 3", got)
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("percentile of no samples = %v, want NaN", got)
	}
	xs = make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	if got := beyond(xs, 0.9); got != 10 {
		t.Errorf("beyond(0..99, p90) = %d, want 10", got)
	}
}

func TestPlanLibraryDeterministic(t *testing.T) {
	a := planLibrary(7, 8, 500, 100, 5, 20)
	b := planLibrary(7, 8, 500, 100, 5, 20)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different plans")
	}
	if reflect.DeepEqual(a, planLibrary(8, 8, 500, 100, 5, 20)) {
		t.Fatal("different seeds gave the same plan")
	}
	seen := make(map[int64]bool)
	for _, sh := range a.shapes {
		if sh.K < 5 || sh.K > 20 {
			t.Errorf("k = %d outside [5,20]", sh.K)
		}
		seen[sh.Seed] = true
	}
	for _, s := range a.probeSeeds {
		seen[s] = true
	}
	if len(seen) != len(a.shapes)+len(a.probeSeeds) {
		t.Errorf("hash seeds repeat: %d distinct of %d", len(seen), len(a.shapes)+len(a.probeSeeds))
	}
	for _, op := range a.ops {
		if op < 0 || op >= len(a.shapes) {
			t.Fatalf("op names option set %d of %d", op, len(a.shapes))
		}
	}
}

func TestPlanMixedDeletesAreDistinct(t *testing.T) {
	const nRows = 40
	a := planMixed(3, 2000, nRows, 2, 5, 25)
	if !reflect.DeepEqual(a, planMixed(3, 2000, nRows, 2, 5, 25)) {
		t.Fatal("same seed gave different plans")
	}
	deleted := make(map[int]bool)
	counts := make(map[opKind]int)
	inserts := 0
	for i, op := range a.ops {
		counts[op.kind]++
		switch op.kind {
		case opDelete:
			if op.row < 0 || op.row >= nRows || deleted[op.row] {
				t.Fatalf("op %d deletes row %d again or out of range", i, op.row)
			}
			deleted[op.row] = true
		case opInsert:
			if op.point != inserts {
				t.Fatalf("op %d inserts point %d, want %d", i, op.point, inserts)
			}
			inserts++
		default:
			if op.k < 5 || op.k > 25 || (op.seed != a.seeds[0] && op.seed != a.seeds[1]) {
				t.Fatalf("op %d: k %d seed %d outside the plan", i, op.k, op.seed)
			}
		}
	}
	if len(deleted) != nRows/2 {
		t.Errorf("%d deletes, want the cap of %d", len(deleted), nRows/2)
	}
	if inserts != a.inserts {
		t.Errorf("plan counts %d inserts, ops hold %d", a.inserts, inserts)
	}
	if counts[opLSH] == 0 || counts[opMH] == 0 {
		t.Errorf("op mix %v lacks a query kind", counts)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 40, End: 70},
		{ID: 4, Parent: 3, Name: "c", Start: 45, End: 55},
		{ID: 5, Parent: 1, Name: "d", Start: 95, End: 120}, // ends after root
		{ID: 6, Name: "other", Start: 0, End: 7},
	}
	want := map[int64]int64{1: 100 - 20 - 30 - 5, 2: 20, 3: 30 - 10, 4: 10, 5: 25, 6: 7}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	if got := spanMillis(spans, "b", true); len(got) != 1 || got[0] != 20e-6 {
		t.Errorf("spanMillis(b, self) = %v, want [2e-05]", got)
	}
}

func TestRecorder(t *testing.T) {
	off := newRecorder(false)
	sp := off.begin("x", 0)
	sp.end()
	if sp.id != 0 || len(off.snapshot()) != 0 {
		t.Fatalf("disabled recorder recorded span %d, %d spans", sp.id, len(off.snapshot()))
	}
	on := newRecorder(true)
	root := on.begin("root", 0)
	child := on.begin("child", root.id)
	child.end()
	root.end()
	spans := on.snapshot()
	if len(spans) != 2 || spans[0].Parent != root.id || spans[1].ID != root.id || spans[0].End > spans[1].End {
		t.Fatalf("spans = %+v", spans)
	}
}

func TestSchedP99(t *testing.T) {
	tot := rtTotals{
		buckets: []float64{0, 1e-6, 1e-5, 1e-4, math.Inf(1)},
		sched:   []uint64{90, 9, 1, 0},
	}
	if got := tot.schedP99Micros(); got != 10 {
		t.Errorf("p99 = %v us, want 10", got)
	}
	tot.sched = []uint64{0, 0, 0, 5}
	if got := tot.schedP99Micros(); got != 100 {
		t.Errorf("p99 in the open bucket = %v us, want its lower edge 100", got)
	}
}

// TestBenchmarkJSON checks the repository's BENCHMARK.json names exactly
// the workloads and metrics this command reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	known := make(map[string]bool)
	for _, w := range workloads {
		known[w.name] = true
	}
	for _, w := range b.Workloads {
		if !known[w.Name] {
			t.Errorf("BENCHMARK.json lists unknown workload %q", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the command reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], command %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
