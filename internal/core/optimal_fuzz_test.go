// Differential fuzz: the exact engine against the greedy engine. On
// random dependence-rich blocks, EngineOptimal must never emit a
// schedule that models more cycles than EngineFast and must preserve
// dependences. Seeded from testdata/fuzz/FuzzOptimalNeverWorse and run
// for 20s in the CI fuzz-smoke job.
package core_test

import (
	"math/rand"
	"testing"

	"eel/internal/core"
	"eel/internal/pipe"
	"eel/internal/sparc"
	"eel/internal/spawn"
	"eel/internal/workload"
)

func FuzzOptimalNeverWorse(f *testing.F) {
	f.Add(int64(1), 6, false, false, 0, false)
	f.Add(int64(2), 10, true, true, 1, true)
	f.Add(int64(3), 16, false, false, 2, true)
	f.Add(int64(4), 1, false, true, 0, false)
	f.Add(int64(5), 24, true, false, 2, true) // oversized: exercises the greedy fallback
	machines := spawn.Machines()
	models := make([]*spawn.Model, len(machines))
	for i, m := range machines {
		models[i] = spawn.MustLoad(m)
	}
	f.Fuzz(func(t *testing.T, seed int64, n int, fp, conservative bool, machineIdx int, cti bool) {
		// Cap the body below the greedy fuzzer's limit: the point here is
		// searched blocks, and anything past OptimalMaxInsts only re-tests
		// the oversized fallback.
		if n < 0 || n > 24 {
			return
		}
		model := models[((machineIdx%len(models))+len(models))%len(models)]
		rng := rand.New(rand.NewSource(seed))
		block := workload.RandomBlock(rng, n, fp)
		for i := range block {
			if rng.Intn(4) == 0 {
				block[i].Instrumented = true
			}
		}
		if cti {
			block = append(block,
				sparc.NewBranch(sparc.CondNE, -int32(len(block))-1),
				sparc.NewNop())
		}
		opts := core.Options{ConservativeMem: conservative}
		optOpts := opts
		optOpts.Engine = core.EngineOptimal
		greedy := core.New(model, opts)
		gOut, gErr := greedy.ScheduleBlock(block)
		oOut, oErr := core.New(model, optOpts).ScheduleBlock(block)
		if (gErr == nil) != (oErr == nil) {
			t.Fatalf("error divergence on %v:\ngreedy:  %v\noptimal: %v", block, gErr, oErr)
		}
		if gErr != nil {
			return
		}
		if err := greedy.VerifyDependences(block, oOut); err != nil {
			t.Fatalf("optimal schedule breaks dependences: %v\norig: %v\nopt:  %v", err, block, oOut)
		}
		gCost, err := pipe.SequenceCycles(model, gOut)
		if err != nil {
			t.Fatalf("cost of greedy: %v", err)
		}
		oCost, err := pipe.SequenceCycles(model, oOut)
		if err != nil {
			t.Fatalf("cost of optimal: %v", err)
		}
		if oCost > gCost {
			t.Fatalf("optimal costs more than greedy on %v: %d > %d\ngreedy: %v\nopt:    %v",
				block, oCost, gCost, gOut, oOut)
		}
		if !instsEqual(oOut, gOut) && oCost >= gCost {
			t.Fatalf("optimal changed the schedule without improving it on %v: greedy %d, optimal %d",
				block, gCost, oCost)
		}
	})
}
