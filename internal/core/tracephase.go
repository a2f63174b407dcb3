package core

import (
	"strconv"

	"eel/internal/obs"
)

// phaseTimes accumulates one worker's per-phase scheduling wall time for
// a batch that carries a request trace (ScheduleBlocksCtx). Workers
// accumulate plain int64s locally — the same shard-then-merge pattern as
// telShard — and the batch merges them into aggregate spans once the
// last worker is done. With no trace, worker.tt is nil and every timing
// site is a single pointer test.
type phaseTimes struct {
	depgraphNs int64 // dependence-graph build (prepare + buildDepGraph + pass 1)
	readyNs    int64 // ready-list issue loop (runFastList / reference pass 2)
	ctiNs      int64 // CTI extraction, delay-slot refill, re-pricing
	cacheNs    int64 // schedule-cache lookups
	lookups    int64
	hits       int64
}

func (t *phaseTimes) merge(o *phaseTimes) {
	t.depgraphNs += o.depgraphNs
	t.readyNs += o.readyNs
	t.ctiNs += o.ctiNs
	t.cacheNs += o.cacheNs
	t.lookups += o.lookups
	t.hits += o.hits
}

// emitPhaseSpans records the batch's per-phase aggregates as child spans
// of parent on tr. Durations are CPU time summed across workers (noted
// agg=cpu), so with several workers a span can exceed the batch's wall
// interval — they attribute work, not wall time, which is why they hang
// under a parent span rather than at top level.
func emitPhaseSpans(tr *obs.Trace, parent int32, startNs int64, agg *phaseTimes, workers int) {
	if tr == nil || agg == nil {
		return
	}
	notes := []string{"agg=cpu", "workers=" + strconv.Itoa(workers)}
	if agg.depgraphNs > 0 {
		tr.AddSpan("sched.depgraph", parent, startNs, agg.depgraphNs, notes...)
	}
	if agg.readyNs > 0 {
		tr.AddSpan("sched.ready", parent, startNs, agg.readyNs, notes...)
	}
	if agg.ctiNs > 0 {
		tr.AddSpan("sched.cti", parent, startNs, agg.ctiNs, notes...)
	}
	if agg.lookups > 0 {
		hn := append(append([]string(nil), notes...),
			"hits="+strconv.FormatInt(agg.hits, 10)+"/"+strconv.FormatInt(agg.lookups, 10))
		tr.AddSpan("cache.lookup", parent, startNs, agg.cacheNs, hn...)
	}
}
