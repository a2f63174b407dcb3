// White-box tests for the exact scheduler's bound helpers and counters.
// The search itself is exercised end-to-end (and differentially against
// the greedy engine) in optimal_invariants_test.go and
// optimal_fuzz_test.go; this file pins down the pieces whose soundness
// the pruning argument rests on.
package core

import (
	"strings"
	"testing"

	"eel/internal/obs"
	"eel/internal/pipe"
	"eel/internal/sparc"
	"eel/internal/spawn"
)

func TestParseEngineOptimal(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Engine
	}{
		{"", EngineFast},
		{"fast", EngineFast},
		{"optimal", EngineOptimal},
	} {
		got, err := ParseEngine(c.in)
		if err != nil {
			t.Fatalf("ParseEngine(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Fatalf("ParseEngine(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	if EngineOptimal.String() != "optimal" {
		t.Fatalf("EngineOptimal.String() = %q", EngineOptimal.String())
	}
	// Unknown values must error and name every valid engine, so the CLI
	// message tells the user what would have worked.
	_, err := ParseEngine("bogus")
	if err == nil {
		t.Fatal("ParseEngine(bogus): no error")
	}
	for _, want := range []string{"bogus", "fast", "optimal"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("ParseEngine(bogus) error %q does not mention %q", err, want)
		}
	}
}

func TestOptimalOptionResolution(t *testing.T) {
	if got := (Options{}).optimalBudget(); got != DefaultOptimalBudget {
		t.Errorf("zero budget resolves to %d, want %d", got, DefaultOptimalBudget)
	}
	if got := (Options{OptimalBudget: 7}).optimalBudget(); got != 7 {
		t.Errorf("explicit budget resolves to %d, want 7", got)
	}
	if got := (Options{OptimalBudget: -1}).optimalBudget(); got != -1 {
		t.Errorf("negative budget resolves to %d, want -1 (disabled)", got)
	}
	if got := (Options{}).optimalMaxInsts(); got != DefaultOptimalMaxInsts {
		t.Errorf("zero maxinsts resolves to %d, want %d", got, DefaultOptimalMaxInsts)
	}
	if got := (Options{OptimalMaxInsts: 4}).optimalMaxInsts(); got != 4 {
		t.Errorf("explicit maxinsts resolves to %d, want 4", got)
	}
}

// TestCriticalPathsOut drives the backward critical-path pass over
// hand-built successor-major graphs, covering the degenerate shapes the
// satellite checklist calls out: empty blocks, single nodes, fully
// dependent chains, and a reconverging diamond.
func TestCriticalPathsOut(t *testing.T) {
	cases := []struct {
		name      string
		succStart []int32 // len n+1
		succTo    []int32
		succLat   []int32
		cycles    []int64
		want      []int64
	}{
		{
			name:      "empty",
			succStart: []int32{0},
			want:      []int64{},
		},
		{
			name:      "single",
			succStart: []int32{0, 0},
			cycles:    []int64{3},
			want:      []int64{3},
		},
		{
			// 0 -2-> 1 -4-> 2, terminal occupancy 5.
			name:      "all-dependent chain",
			succStart: []int32{0, 1, 2, 2},
			succTo:    []int32{1, 2},
			succLat:   []int32{2, 4},
			cycles:    []int64{1, 1, 5},
			want:      []int64{11, 9, 5},
		},
		{
			// 0 -> {1 (lat 1), 2 (lat 3)} -> 3; the lat-3 arm dominates.
			name:      "diamond",
			succStart: []int32{0, 2, 3, 4, 4},
			succTo:    []int32{1, 2, 3, 3},
			succLat:   []int32{1, 3, 1, 1},
			cycles:    []int64{1, 1, 1, 1},
			want:      []int64{5, 2, 2, 1},
		},
		{
			// A zero-latency successor must not shadow the node's own
			// occupancy.
			name:      "occupancy dominates",
			succStart: []int32{0, 1, 1},
			succTo:    []int32{1},
			succLat:   []int32{0},
			cycles:    []int64{4, 1},
			want:      []int64{4, 1},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n := len(c.cycles)
			got := make([]int64, n)
			criticalPathsOut(n, c.succStart, c.succTo, c.succLat, c.cycles, got)
			for i := range got {
				if got[i] != c.want[i] {
					t.Fatalf("cpOut = %v, want %v", got, c.want)
				}
			}
		})
	}
}

func TestResourceFloor(t *testing.T) {
	cases := []struct {
		name   string
		clock  int64
		demand []int64
		counts []int32
		span   []int64
		minCyc int64
		want   int64
	}{
		{
			name:   "no demand",
			demand: []int64{0, 0},
			counts: []int32{1, 1},
			span:   []int64{0, 0},
			minCyc: 1,
			want:   0,
		},
		{
			// 6 held slots through a 2-wide unit with span 1: last issue at
			// ceil(6/2)-1 = cycle 2, plus one occupancy cycle.
			name:   "single unit",
			demand: []int64{6},
			counts: []int32{2},
			span:   []int64{1},
			minCyc: 1,
			want:   3,
		},
		{
			name:   "clock offsets the floor",
			clock:  10,
			demand: []int64{6},
			counts: []int32{2},
			span:   []int64{1},
			minCyc: 1,
			want:   13,
		},
		{
			// A span wider than the remaining demand can push the bound
			// below zero; the floor must clamp, not go negative.
			name:   "wide span clamps",
			demand: []int64{2},
			counts: []int32{1},
			span:   []int64{10},
			minCyc: 1,
			want:   0,
		},
		{
			name:   "max across units",
			demand: []int64{6, 8},
			counts: []int32{2, 2},
			span:   []int64{1, 1},
			minCyc: 2,
			want:   5,
		},
		{
			name:   "zero-demand unit skipped",
			clock:  1,
			demand: []int64{0, 5},
			counts: []int32{1, 1},
			span:   []int64{1, 1},
			minCyc: 1,
			want:   6,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := resourceFloor(c.clock, c.demand, c.counts, c.span, c.minCyc)
			if got != c.want {
				t.Fatalf("resourceFloor = %d, want %d", got, c.want)
			}
		})
	}
}

// TestOracleEdgeLatSound is the admissibility check the critical-path
// bound depends on: for every ordered pair of probe instructions on
// every shipped machine, issuing i and then j back-to-back from a clean
// pipeline must leave at least oracleEdgeLat cycles between the issues.
// If this ever fails, the bound is inadmissible and "proven optimal"
// stops meaning anything.
func TestOracleEdgeLatSound(t *testing.T) {
	probes := []sparc.Inst{
		sparc.NewLoad(sparc.OpLd, sparc.G1, sparc.O0, 0),
		sparc.NewLoad(sparc.OpLdd, sparc.G2, sparc.O0, 8),
		sparc.NewALU(sparc.OpAdd, sparc.G3, sparc.G1, sparc.G2),
		sparc.NewALU(sparc.OpUmul, sparc.G4, sparc.G3, sparc.G1),
		sparc.NewALU(sparc.OpSdiv, sparc.G1, sparc.G4, sparc.G2),
		sparc.NewALUImm(sparc.OpSll, sparc.G2, sparc.G1, 3),
		sparc.NewStore(sparc.OpSt, sparc.G3, sparc.O1, 0),
		sparc.NewSethi(sparc.G4, 1024),
		sparc.NewNop(),
	}
	for _, machine := range spawn.Machines() {
		model := spawn.MustLoad(machine)
		fs := pipe.NewFastState(model)
		prep := make([]pipe.Prepared, len(probes))
		for i, in := range probes {
			p, err := fs.Prepare(in)
			if err != nil {
				t.Fatalf("%s: prepare %v: %v", machine, in, err)
			}
			prep[i] = p
		}
		for i := range probes {
			for j := range probes {
				lat := oracleEdgeLat(&prep[i], &prep[j])
				if lat < 0 {
					t.Fatalf("%s: oracleEdgeLat(%v, %v) = %d, negative", machine, probes[i], probes[j], lat)
				}
				fs.Reset()
				_, ti, err := fs.IssuePrepared(&prep[i], probes[i])
				if err != nil {
					t.Fatalf("%s: issue %v: %v", machine, probes[i], err)
				}
				_, tj, err := fs.IssuePrepared(&prep[j], probes[j])
				if err != nil {
					t.Fatalf("%s: issue %v after %v: %v", machine, probes[j], probes[i], err)
				}
				if tj-ti < int64(lat) {
					t.Fatalf("%s: bound inadmissible: %v -> %v issued %d apart, oracleEdgeLat says >= %d",
						machine, probes[i], probes[j], tj-ti, lat)
				}
			}
		}
	}
}

// TestOptAggNilSafe pins the disabled-is-nil convention: every optAgg
// method must be a no-op on a nil receiver (greedy engines), and a nil
// obs registry must disable the mirrored counters without disabling the
// snapshot.
func TestOptAggNilSafe(t *testing.T) {
	var a *optAgg
	a.sawBlock(5)
	a.provenBlock(5)
	a.hitProven(5)
	a.exhaustedBlock(true)
	a.improvedBlock(3)
	a.cacheBypassed()
	a.searchedNodes(7)
	a.searchError()

	b := newOptAgg(nil)
	b.sawBlock(5)           // small
	b.sawBlock(20)          // large
	b.provenBlock(5)        // small
	b.hitProven(13)         // large: Blocks+Proven, not Small*
	b.exhaustedBlock(true)  // + Oversized
	b.exhaustedBlock(false) // budget only
	b.improvedBlock(3)
	b.cacheBypassed()
	b.searchedNodes(7)
	b.searchError()
	want := OptimalStats{
		Blocks: 3, Proven: 2, SmallBlocks: 1, SmallProven: 1,
		BudgetExhausted: 2, Oversized: 1,
		Improved: 1, CyclesSaved: 3,
		CacheBypasses: 1, Nodes: 7, SearchErrors: 1,
	}
	b.mu.Lock()
	got := b.st
	b.mu.Unlock()
	if got != want {
		t.Fatalf("snapshot = %+v, want %+v", got, want)
	}
}

// TestOptAggObsMirror asserts the snapshot and the obs counters move in
// lockstep, under the exact metric names the tooling scrapes.
func TestOptAggObsMirror(t *testing.T) {
	reg := obs.NewRegistry()
	a := newOptAgg(reg)
	a.sawBlock(4)
	a.provenBlock(4)
	a.exhaustedBlock(false)
	a.improvedBlock(2)
	a.cacheBypassed()
	a.searchedNodes(11)
	a.searchError()
	want := map[string]int64{
		"core.optimal_blocks_total":        1,
		"core.optimal_proven_total":        1,
		"core.optimal_small_blocks_total":  1,
		"core.optimal_small_proven_total":  1,
		"core.optimal_budget_exhausted":    1,
		"core.optimal_oversized_total":     0,
		"core.optimal_improved_total":      1,
		"core.optimal_cycles_saved_total":  2,
		"core.optimal_cache_bypass_total":  1,
		"core.optimal_nodes_total":         11,
		"core.optimal_search_errors_total": 1,
	}
	got := reg.Counters()
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %d, want %d", name, got[name], v)
		}
	}
}

// TestOptimalStatsGreedyEngine: a greedy scheduler has no aggregate and
// must report all-zero stats rather than panic.
func TestOptimalStatsGreedyEngine(t *testing.T) {
	s := New(spawn.MustLoad(spawn.UltraSPARC), Options{})
	if st := s.OptimalStats(); st != (OptimalStats{}) {
		t.Fatalf("greedy scheduler reports optimal stats: %+v", st)
	}
}
