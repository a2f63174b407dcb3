package core

import (
	"eel/internal/pipe"
	"eel/internal/spawn"
)

// UseReferenceEngine switches s's straight-line pass to the reference
// engine (reference_test.go) and returns s. The scheduler stops using
// any schedule cache: reference results must never be served to, or
// from, a fast-engine pass sharing the cache. The exact search needs the
// fast engine's scratch graph, so EngineOptimal schedulers are refused.
func UseReferenceEngine(s *Scheduler) *Scheduler {
	if s.opt != nil {
		panic("core: the reference engine cannot seed the exact search")
	}
	s.refEngine = (*Scheduler).referenceStraightLine
	s.cacheID = 0
	return s
}

// NewStateScheduler returns a scheduler over the reference pipe.State
// oracle, one per worker: the fast engine through plain Stalls/Issue
// probes, uncached like every custom-oracle scheduler.
func NewStateScheduler(model *spawn.Model, opts Options) *Scheduler {
	return NewWithFactory(func() Pipeline { return pipe.NewState(model) }, model, opts)
}
