// Differential fuzz: the fast scheduling engine (arena dependence-graph
// build + lazy-probe priority queue) against the reference engine (the
// original pairwise builder and full ready-list rescan). The two must
// produce byte-identical schedules — including tie-breaks — and agree on
// errors, for every option combination that changes the dependence graph
// or the priority function. This is the property the fast engine's
// correctness argument (see readyq.go) is cashed against.
package core_test

import (
	"math/rand"
	"testing"

	"eel/internal/core"
	"eel/internal/sparc"
	"eel/internal/spawn"
	"eel/internal/workload"
)

func FuzzScheduleEngines(f *testing.F) {
	f.Add(int64(1), 8, false, false, false, 0, false)
	f.Add(int64(2), 24, true, true, false, 1, true)
	f.Add(int64(3), 40, false, false, true, 2, true)
	f.Add(int64(4), 1, false, true, true, 0, false)
	f.Add(int64(5), 64, true, false, false, 2, false)
	machines := spawn.Machines()
	models := make([]*spawn.Model, len(machines))
	for i, m := range machines {
		models[i] = spawn.MustLoad(m)
	}
	f.Fuzz(func(t *testing.T, seed int64, n int, fp, conservative, chainFirst bool, machineIdx int, cti bool) {
		if n < 0 || n > 96 {
			return
		}
		model := models[((machineIdx%len(models))+len(models))%len(models)]
		rng := rand.New(rand.NewSource(seed))
		block := workload.RandomBlock(rng, n, fp)
		// Instrumentation marks drive the memory-disambiguation domains
		// (and, with ConservativeMem, the cross-domain edges).
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
		opts := core.Options{ConservativeMem: conservative, ChainFirst: chainFirst}
		fastOut, fastErr := core.New(model, opts).ScheduleBlock(block)
		refOut, refErr := core.UseReferenceEngine(core.New(model, opts)).ScheduleBlock(block)
		if (fastErr == nil) != (refErr == nil) {
			t.Fatalf("error divergence on %v:\nfast:      %v\nreference: %v", block, fastErr, refErr)
		}
		if fastErr != nil {
			return
		}
		if !instsEqual(fastOut, refOut) {
			t.Fatalf("schedule divergence on %v:\nfast:      %v\nreference: %v", block, fastOut, refOut)
		}
	})
}
