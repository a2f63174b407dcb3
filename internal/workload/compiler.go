package workload

import (
	"eel/internal/core"
	"eel/internal/sim"
	"eel/internal/sparc"
	"eel/internal/spawn"
)

// compilerScheduler stands in for the Sun compilers' "-fast -xO4"
// instruction scheduler: where EEL runs one greedy list-scheduling pass
// against its SADL model, the compiler tries several schedules — both
// priority functions of the greedy scheduler plus the original order —
// evaluates each against the *hardware* model (grouping rules included),
// and keeps the fastest. EEL's later rescheduling pass, blind to the
// hardware rules and armed with a single heuristic, partially undoes this
// work: the paper's Table 1 de-scheduling effect.
//
// A compilerScheduler is not safe for concurrent use: eel.Edit drives a
// plain BlockScheduler one block at a time.
type compilerScheduler struct {
	candidates []*core.Scheduler
	// hw prices candidates; Reset before each block, it issues exactly
	// like a fresh pipeline (TestHWPipelineResetMatchesFresh).
	hw *sim.HWPipeline
}

func newCompilerScheduler(model *spawn.Model, rules sim.Rules) *compilerScheduler {
	mk := func(opts core.Options) *core.Scheduler {
		return core.NewWith(sim.NewHWPipeline(model, rules), model, opts)
	}
	return &compilerScheduler{
		candidates: []*core.Scheduler{
			mk(core.Options{}),
			mk(core.Options{ChainFirst: true}),
		},
		hw: sim.NewHWPipeline(model, rules),
	}
}

// ScheduleBlock returns the best candidate schedule by measured cycles on
// the hardware model; the original order competes too.
func (c *compilerScheduler) ScheduleBlock(block []sparc.Inst) ([]sparc.Inst, error) {
	best := block
	bestCost, err := c.cost(block)
	if err != nil {
		return nil, err
	}
	for _, sched := range c.candidates {
		cand, err := sched.ScheduleBlock(block)
		if err != nil {
			return nil, err
		}
		cost, err := c.cost(cand)
		if err != nil {
			return nil, err
		}
		// Prefer shorter blocks on ties (dropped delay-slot nops).
		if cost < bestCost || (cost == bestCost && len(cand) < len(best)) {
			best, bestCost = cand, cost
		}
	}
	return best, nil
}

// cost measures a block on an empty hardware pipeline: the issue cycle
// of the last instruction.
func (c *compilerScheduler) cost(block []sparc.Inst) (int64, error) {
	c.hw.Reset()
	var last int64
	for _, inst := range block {
		_, t, err := c.hw.Issue(inst)
		if err != nil {
			return 0, err
		}
		last = t
	}
	return last, nil
}
