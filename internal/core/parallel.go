package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"eel/internal/obs"
	"eel/internal/sparc"
)

// ErrPanic marks a ScheduleBlocks failure caused by a panic in the
// scheduler or its stall oracle rather than by the block itself being
// unschedulable: the panic is recovered on whichever goroutine ran the
// block and becomes that block's error, so one bad block fails its call
// instead of the process.
var ErrPanic = errors.New("core: panic while scheduling")

// ScheduleBlocks schedules a batch of basic blocks and returns them in
// the same order. The paper's scheduler keeps no state across block
// boundaries (the oracle is Reset per block), so blocks are independent
// and the batch fans out over Options.Workers goroutines, each drawing a
// private stall oracle from the scheduler's pool. The output is
// byte-identical to scheduling the blocks one by one with ScheduleBlock,
// for any worker count.
//
// Schedulers built with NewWith hold a single, unreplicable oracle and
// fall back to the sequential path. On error, the failure from the
// lowest-indexed failing block is reported; a recovered panic is such a
// failure (errors.Is(err, ErrPanic)).
func (s *Scheduler) ScheduleBlocks(blocks [][]sparc.Inst) ([][]sparc.Inst, error) {
	return s.scheduleBlocksTraced(nil, -1, blocks)
}

// ScheduleBlocksCtx is ScheduleBlocks with an optional request trace
// carried in ctx (obs.WithTrace / obs.WithTraceParent): the batch's
// per-phase time — dependence-graph build, ready-list issue, CTI
// handling, cache lookups — is accumulated per worker and recorded as
// child spans under the context's parent span, and decision traces
// (Options.Trace) are stamped with the trace's ID. With no trace in ctx
// it is exactly ScheduleBlocks.
func (s *Scheduler) ScheduleBlocksCtx(ctx context.Context, blocks [][]sparc.Inst) ([][]sparc.Inst, error) {
	tr, parent := obs.TraceParentFrom(ctx)
	return s.scheduleBlocksTraced(tr, parent, blocks)
}

func (s *Scheduler) scheduleBlocksTraced(tr *obs.Trace, parent int32, blocks [][]sparc.Inst) ([][]sparc.Inst, error) {
	if s.opts.NoReorder {
		return blocks, nil
	}
	out := make([][]sparc.Inst, len(blocks))
	workers := s.opts.workers()
	if workers > len(blocks) {
		workers = len(blocks)
	}
	var (
		agg     *phaseTimes
		startNs int64
	)
	if tr != nil {
		agg = &phaseTimes{}
		startNs = tr.SinceStart()
	}
	if s.factory == nil || workers <= 1 {
		s.tel.recordBatch(1, len(blocks))
		defer s.tel.recordCache(s.opts.Cache)
		w := s.seq
		if s.factory != nil {
			// Draw private state from the pool so concurrent callers of a
			// shared scheduler never contend on s.seq even when each call
			// runs sequentially.
			w = s.pool.Get().(*worker)
			defer s.release(w)
		}
		if agg != nil {
			w.tt, w.traceID = agg, tr.ID()
			defer func() {
				w.tt, w.traceID = nil, ""
				emitPhaseSpans(tr, parent, startNs, agg, 1)
			}()
		}
		defer s.tel.flush(w)
		for i, b := range blocks {
			sb, err := s.scheduleContained(w, i, b)
			if err != nil {
				return nil, fmt.Errorf("core: block %d: %w", i, err)
			}
			out[i] = sb
		}
		return out, nil
	}
	s.tel.recordBatch(workers, len(blocks))
	defer s.tel.recordCache(s.opts.Cache)

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		firstIdx = len(blocks)
	)
	runWorker := func() {
		w := s.pool.Get().(*worker)
		defer s.release(w)
		if agg != nil {
			w.tt, w.traceID = &phaseTimes{}, tr.ID()
			defer func() {
				mu.Lock()
				agg.merge(w.tt)
				mu.Unlock()
				w.tt, w.traceID = nil, ""
			}()
		}
		defer s.tel.flush(w)
		for {
			i := int(next.Add(1)) - 1
			if i >= len(blocks) {
				return
			}
			sb, err := s.scheduleContained(w, i, blocks[i])
			if err != nil {
				// Keep draining so the reported error is the
				// deterministic lowest-indexed failure.
				mu.Lock()
				if i < firstIdx {
					firstIdx, firstErr = i, err
				}
				mu.Unlock()
				if w.broken {
					// Every lower index is already claimed, so the other
					// workers still find the lowest failure without it.
					return
				}
				continue
			}
			out[i] = sb
		}
	}
	// Dispatch workers-1 helpers to the persistent pool (pool.go); the
	// calling goroutine is the last worker. Since workers claim block
	// indices from the shared counter, any subset drains the whole
	// batch — so a refused dispatch (pool closed, or saturated by
	// concurrent batches) just means fewer helpers, never lost blocks.
	for h := 0; h < workers-1; h++ {
		wg.Add(1)
		ok := s.exec != nil && s.exec.dispatch(func() {
			defer wg.Done()
			runWorker()
		})
		if !ok {
			wg.Done()
			break
		}
	}
	runWorker()
	wg.Wait()
	if agg != nil {
		emitPhaseSpans(tr, parent, startNs, agg, workers)
	}
	if firstErr != nil {
		return nil, fmt.Errorf("core: block %d: %w", firstIdx, firstErr)
	}
	return out, nil
}

// scheduleContained is scheduleBlockOn with a panic turned into the
// block's error (wrapping ErrPanic). The worker's scratch and oracle may
// be half-updated after a panic, so it is marked broken and release
// drops it instead of returning it to the pool.
func (s *Scheduler) scheduleContained(w *worker, idx int, block []sparc.Inst) (out []sparc.Inst, err error) {
	defer func() {
		if r := recover(); r != nil {
			w.broken = true
			out, err = nil, fmt.Errorf("%w: %v", ErrPanic, r)
		}
	}()
	return s.scheduleBlockOn(w, idx, block)
}

// release returns a pool worker to the pool unless a panic broke it.
func (s *Scheduler) release(w *worker) {
	if !w.broken {
		s.pool.Put(w)
	}
}
