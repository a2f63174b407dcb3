// EngineOptimal ground-truth properties, checked over the full workload
// suite: the exact search never emits a schedule costing more than
// greedy, its output passes the dependence verifier, both stall oracles
// replay it identically, and at the default budget it proves nearly all
// small blocks optimal (the schedgap acceptance bar). External package
// because the workload generator transitively imports core.
package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"eel/internal/core"
	"eel/internal/obs"
	"eel/internal/pipe"
	"eel/internal/sparc"
	"eel/internal/spawn"
	"eel/internal/workload"
)

// TestOptimalNeverWorseSuite is the whole-suite invariant run: for every
// basic block of every benchmark on every shipped machine,
//
//   - cost(optimal) <= cost(greedy) <= cost(original) in modeled cycles;
//   - the optimal schedule preserves dependences;
//   - blocks that changed are exactly the ones counted as improved;
//   - at the default budget, >= 90% of small (<= 12 instruction) blocks
//     carry an exhausted-search optimality certificate.
func TestOptimalNeverWorseSuite(t *testing.T) {
	for _, machine := range spawn.Machines() {
		machine := machine
		t.Run(string(machine), func(t *testing.T) {
			model := spawn.MustLoad(machine)
			greedy := core.New(model, core.Options{})
			opt := core.New(model, core.Options{Engine: core.EngineOptimal})
			nblocks, nimproved := 0, 0
			var saved int64
			for name, blocks := range suiteBlocks(t, machine) {
				for i, block := range blocks {
					label := fmt.Sprintf("%s block %d", name, i)
					gOut, err := greedy.ScheduleBlock(block)
					if err != nil {
						t.Fatalf("%s: greedy: %v", label, err)
					}
					oOut, err := opt.ScheduleBlock(block)
					if err != nil {
						t.Fatalf("%s: optimal: %v", label, err)
					}
					if err := opt.VerifyDependences(block, oOut); err != nil {
						t.Fatalf("%s: %v\norig: %v\nopt:  %v", label, err, block, oOut)
					}
					before, err := pipe.SequenceCycles(model, block)
					if err != nil {
						t.Fatalf("%s: cost of original: %v", label, err)
					}
					gCost, err := pipe.SequenceCycles(model, gOut)
					if err != nil {
						t.Fatalf("%s: cost of greedy: %v", label, err)
					}
					oCost, err := pipe.SequenceCycles(model, oOut)
					if err != nil {
						t.Fatalf("%s: cost of optimal: %v", label, err)
					}
					if oCost > gCost || gCost > before {
						t.Fatalf("%s: cost order violated: original %d, greedy %d, optimal %d\norig: %v\nopt:  %v",
							label, before, gCost, oCost, block, oOut)
					}
					if !instsEqual(oOut, gOut) {
						if oCost >= gCost {
							t.Fatalf("%s: optimal changed the schedule without improving it: greedy %d, optimal %d",
								label, gCost, oCost)
						}
						nimproved++
						saved += gCost - oCost
					}
					nblocks++
				}
			}
			st := opt.OptimalStats()
			if st.Blocks != int64(nblocks) {
				t.Fatalf("stats count %d blocks, scheduled %d", st.Blocks, nblocks)
			}
			if st.Improved != int64(nimproved) || st.CyclesSaved != saved {
				t.Fatalf("stats report %d improved / %d saved, observed %d / %d",
					st.Improved, st.CyclesSaved, nimproved, saved)
			}
			if st.Proven > st.Blocks || st.SmallProven > st.SmallBlocks {
				t.Fatalf("more proven than seen: %+v", st)
			}
			if st.SmallBlocks == 0 {
				t.Fatal("suite produced no small blocks")
			}
			if rate := float64(st.SmallProven) / float64(st.SmallBlocks); rate < 0.90 {
				t.Fatalf("only %.1f%% of small blocks proven optimal (%d/%d), want >= 90%%",
					100*rate, st.SmallProven, st.SmallBlocks)
			}
			t.Logf("%s: %d blocks, %d improved (%d cycles), %d/%d proven (%d/%d small), %d exhausted, %d nodes",
				machine, st.Blocks, st.Improved, st.CyclesSaved, st.Proven, st.Blocks,
				st.SmallProven, st.SmallBlocks, st.BudgetExhausted, st.Nodes)
		})
	}
}

// TestOptimalBlockShapes pins the degenerate-block policies: empty
// blocks bypass the engine, bodies of one instruction and annulled
// branches are trivially proven, a fully dependent chain admits exactly
// one order.
func TestOptimalBlockShapes(t *testing.T) {
	model := spawn.MustLoad(spawn.UltraSPARC)

	t.Run("empty", func(t *testing.T) {
		s := core.New(model, core.Options{Engine: core.EngineOptimal})
		out, err := s.ScheduleBlock(nil)
		if err != nil {
			t.Fatalf("schedule: %v", err)
		}
		if len(out) != 0 {
			t.Fatalf("empty block scheduled to %v", out)
		}
		if st := s.OptimalStats(); st.Blocks != 0 {
			t.Fatalf("empty block reached the engine: %+v", st)
		}
	})

	t.Run("single CTI", func(t *testing.T) {
		s := core.New(model, core.Options{Engine: core.EngineOptimal})
		block := []sparc.Inst{sparc.NewBranch(sparc.CondNE, -1), sparc.NewNop()}
		out, err := s.ScheduleBlock(block)
		if err != nil {
			t.Fatalf("schedule: %v", err)
		}
		if !instsEqual(out, block) {
			t.Fatalf("CTI-only block changed: %v -> %v", block, out)
		}
		st := s.OptimalStats()
		if st.Blocks != 1 || st.Proven != 1 || st.SmallProven != 1 {
			t.Fatalf("CTI-only block not trivially proven: %+v", st)
		}
	})

	t.Run("annulled branch", func(t *testing.T) {
		s := core.New(model, core.Options{Engine: core.EngineOptimal})
		br := sparc.NewBranch(sparc.CondNE, -4)
		br.Annul = true
		block := []sparc.Inst{
			sparc.NewLoad(sparc.OpLd, sparc.G1, sparc.O0, 0),
			sparc.NewSethi(sparc.G2, 7),
			br,
			sparc.NewALU(sparc.OpAdd, sparc.G3, sparc.G2, sparc.G2),
		}
		out, err := s.ScheduleBlock(block)
		if err != nil {
			t.Fatalf("schedule: %v", err)
		}
		if !instsEqual(out, block) {
			t.Fatalf("annulled-branch block changed: %v -> %v", block, out)
		}
		st := s.OptimalStats()
		if st.Blocks != 1 || st.Proven != 1 {
			t.Fatalf("annulled-branch block not trivially proven: %+v", st)
		}
	})

	t.Run("all-dependent chain", func(t *testing.T) {
		s := core.New(model, core.Options{Engine: core.EngineOptimal})
		block := []sparc.Inst{
			sparc.NewLoad(sparc.OpLd, sparc.G1, sparc.O0, 0),
			sparc.NewALU(sparc.OpAdd, sparc.G2, sparc.G1, sparc.G1),
			sparc.NewALU(sparc.OpSub, sparc.G3, sparc.G2, sparc.G2),
			sparc.NewALU(sparc.OpXor, sparc.G4, sparc.G3, sparc.G3),
		}
		out, err := s.ScheduleBlock(block)
		if err != nil {
			t.Fatalf("schedule: %v", err)
		}
		if !instsEqual(out, block) {
			t.Fatalf("chain admits one order but changed: %v -> %v", block, out)
		}
		st := s.OptimalStats()
		if st.Blocks != 1 || st.Proven != 1 || st.Improved != 0 {
			t.Fatalf("chain not proven without improvement: %+v", st)
		}
	})
}

// TestOptimalBudgetExhaustion is the satellite fallback test: blocks the
// search cannot afford keep their greedy schedule, and the exhaustion is
// visible both in the stats snapshot and the core.optimal_budget_exhausted
// metric — including when observability is disabled entirely.
func TestOptimalBudgetExhaustion(t *testing.T) {
	model := spawn.MustLoad(spawn.UltraSPARC)
	rng := rand.New(rand.NewSource(42))
	oversized := workload.RandomBlock(rng, core.DefaultOptimalMaxInsts+2, false)
	if len(oversized) < 20 {
		t.Fatalf("crafted block has %d instructions, want >= 20", len(oversized))
	}
	small := workload.RandomBlock(rand.New(rand.NewSource(43)), 10, false)

	greedy := core.New(model, core.Options{})
	greedyOversized, err := greedy.ScheduleBlock(oversized)
	if err != nil {
		t.Fatalf("greedy: %v", err)
	}
	greedySmall, err := greedy.ScheduleBlock(small)
	if err != nil {
		t.Fatalf("greedy: %v", err)
	}

	t.Run("oversized body skips the search", func(t *testing.T) {
		reg := obs.NewRegistry()
		s := core.New(model, core.Options{Engine: core.EngineOptimal, Obs: reg})
		out, err := s.ScheduleBlock(oversized)
		if err != nil {
			t.Fatalf("schedule: %v", err)
		}
		if !instsEqual(out, greedyOversized) {
			t.Fatalf("oversized block did not fall back to greedy:\ngreedy:  %v\noptimal: %v", greedyOversized, out)
		}
		st := s.OptimalStats()
		if st.Blocks != 1 || st.BudgetExhausted != 1 || st.Oversized != 1 || st.Proven != 0 {
			t.Fatalf("oversized block miscounted: %+v", st)
		}
		counters := reg.Counters()
		if counters["core.optimal_budget_exhausted"] != 1 {
			t.Fatalf("core.optimal_budget_exhausted = %d, want 1", counters["core.optimal_budget_exhausted"])
		}
		if counters["core.optimal_oversized_total"] != 1 {
			t.Fatalf("core.optimal_oversized_total = %d, want 1", counters["core.optimal_oversized_total"])
		}
	})

	t.Run("negative budget disables the search", func(t *testing.T) {
		reg := obs.NewRegistry()
		s := core.New(model, core.Options{Engine: core.EngineOptimal, OptimalBudget: -1, Obs: reg})
		out, err := s.ScheduleBlock(small)
		if err != nil {
			t.Fatalf("schedule: %v", err)
		}
		if !instsEqual(out, greedySmall) {
			t.Fatalf("disabled search did not fall back to greedy:\ngreedy:  %v\noptimal: %v", greedySmall, out)
		}
		st := s.OptimalStats()
		if st.BudgetExhausted != 1 || st.Oversized != 0 || st.Proven != 0 {
			t.Fatalf("disabled search miscounted: %+v", st)
		}
		if st.Nodes < 1 {
			t.Fatalf("disabled search should still count its first node: %+v", st)
		}
		if counters := reg.Counters(); counters["core.optimal_budget_exhausted"] != 1 {
			t.Fatalf("core.optimal_budget_exhausted = %d, want 1", counters["core.optimal_budget_exhausted"])
		}
	})

	t.Run("nil obs registry is safe", func(t *testing.T) {
		s := core.New(model, core.Options{Engine: core.EngineOptimal, OptimalBudget: -1})
		out, err := s.ScheduleBlock(small)
		if err != nil {
			t.Fatalf("schedule: %v", err)
		}
		if !instsEqual(out, greedySmall) {
			t.Fatalf("nil-obs fallback diverged from greedy")
		}
		if st := s.OptimalStats(); st.BudgetExhausted != 1 {
			t.Fatalf("snapshot must count even without a registry: %+v", st)
		}
	})
}

// TestOptimalParallelBatch runs EngineOptimal through the worker pool:
// the batch output must be byte-identical to the sequential path (the
// search is per-block deterministic) and the shared stats aggregate must
// see every block exactly once.
func TestOptimalParallelBatch(t *testing.T) {
	machine := spawn.UltraSPARC
	model := spawn.MustLoad(machine)
	var blocks [][]sparc.Inst
	for _, bs := range suiteBlocks(t, machine) {
		blocks = append(blocks, bs...)
	}
	seq := core.New(model, core.Options{Engine: core.EngineOptimal, Workers: -1})
	par := core.New(model, core.Options{Engine: core.EngineOptimal, Workers: 8})
	seqOut, err := seq.ScheduleBlocks(blocks)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	parOut, err := par.ScheduleBlocks(blocks)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	for i := range seqOut {
		if !instsEqual(seqOut[i], parOut[i]) {
			t.Fatalf("block %d: parallel schedule diverged:\nseq: %v\npar: %v", i, seqOut[i], parOut[i])
		}
	}
	ss, ps := seq.OptimalStats(), par.OptimalStats()
	if ps.Blocks != int64(len(blocks)) || ss.Blocks != ps.Blocks {
		t.Fatalf("stats disagree on block count: seq %d, par %d, want %d", ss.Blocks, ps.Blocks, len(blocks))
	}
	if ss.Proven != ps.Proven || ss.Improved != ps.Improved || ss.CyclesSaved != ps.CyclesSaved {
		t.Fatalf("stats diverge across worker counts:\nseq: %+v\npar: %+v", ss, ps)
	}
}

// TestOptimalCacheCertificates: proven results round-trip through the
// schedule cache (hits count as proven), unproven ones are withheld so
// the cache never launders a greedy fallback into a certified optimum.
func TestOptimalCacheCertificates(t *testing.T) {
	model := spawn.MustLoad(spawn.UltraSPARC)
	small := workload.RandomBlock(rand.New(rand.NewSource(44)), 8, false)
	oversized := workload.RandomBlock(rand.New(rand.NewSource(45)), core.DefaultOptimalMaxInsts+2, false)

	cache := core.NewCache(0)
	s := core.New(model, core.Options{Engine: core.EngineOptimal, Cache: cache})
	first, err := s.ScheduleBlock(small)
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	second, err := s.ScheduleBlock(small)
	if err != nil {
		t.Fatalf("reschedule: %v", err)
	}
	if !instsEqual(first, second) {
		t.Fatalf("cache hit changed the schedule")
	}
	st := s.OptimalStats()
	if st.Blocks != 2 || st.Proven != 2 {
		t.Fatalf("cache hit not counted as proven: %+v", st)
	}
	if hits, _ := cache.Stats(); hits != 1 {
		t.Fatalf("expected 1 cache hit, got %d", hits)
	}

	if _, err := s.ScheduleBlock(oversized); err != nil {
		t.Fatalf("schedule oversized: %v", err)
	}
	if _, err := s.ScheduleBlock(oversized); err != nil {
		t.Fatalf("reschedule oversized: %v", err)
	}
	st = s.OptimalStats()
	if st.CacheBypasses != 2 {
		t.Fatalf("unproven results must bypass the cache twice, got %+v", st)
	}
}
