package core

import (
	"fmt"

	"eel/internal/sparc"
)

// This file is pass 2 of the fast engine: list scheduling with an
// indexed priority queue over per-node earliest-issue-cycle bounds,
// instead of the reference loop's full ready-list Stalls rescan at every
// step (the reference engine lives in reference_test.go as ground truth).
//
// Why the result is still byte-identical to the reference rescan: every
// stall oracle is monotone (the contract on Pipeline) — Issue only adds
// unit usage, raises register read/write horizons, and advances the
// clock — so the absolute cycle at which a ready instruction could issue
// never decreases as other instructions are committed. A Stalls probe taken at any earlier
// point in the block is therefore a permanent lower bound on the node's
// current earliest issue cycle. The queue keeps nodes ordered by that
// bound (ties broken by the reference priority: longest dependence
// chain, then original index); when the minimum-bound node's probe is
// stale — taken before the most recent Issue — it is re-probed and
// sifted down (bounds only grow). Once the root's probe is fresh, its
// bound is its true earliest issue cycle, which is ≤ every other node's
// bound ≤ that node's true cycle — so the root is exactly the node the
// reference scan would select, including tie-breaks, because stalls at a
// common clock order the same way as absolute cycles. Only nodes that
// surface at the root between two issues are probed: O(E + n log n)
// probes and heap work instead of the rescan's O(n²) probes.
//
// The bounds come exclusively from oracle probes (a node enters the
// queue with the clock at entry, the weakest sound bound). Propagating
// DAG edge latencies would be cheaper still, but the builder's pair
// latencies are not provably conservative against the oracle's placement
// rules for every description, and a too-high bound silently changes
// schedules. Probe caching alone already removes the quadratic term.

// runFastList schedules sc's dependence graph against oracle p. The
// scratch must have been filled by buildDepGraph. It also returns the
// modeled cycle count of the emitted sequence — the same value
// sequenceCost would measure, folded out of the issue cycles the loop
// produces anyway — so the never-costs-more guard can skip one replay.
// When pp is non-nil, probes and issues go through the pre-resolved
// placement inputs in sc.Prep.
func (s *Scheduler) runFastList(sc *scratch, p Pipeline, pp preparedPipeline) ([]sparc.Inst, int64, error) {
	n := len(sc.Insts)
	p.Reset()
	chainFirst := s.opts.ChainFirst

	var clock int64 // the oracle's clock: 0 after Reset, then each issue cycle
	version := int32(0)
	for i := 0; i < n; i++ {
		sc.probed[i] = -1
		if sc.npred[i] == 0 {
			sc.cachedT[i] = clock
			sc.heapPush(int32(i), chainFirst)
		}
	}

	var endCost int64
	out := sc.arena.take(n)
	for len(sc.heap) > 0 {
		top := sc.heap[0]
		// With a single candidate the selection is forced, so no probe is
		// needed even if its bound is stale (Issue fails exactly when the
		// probe would have).
		if len(sc.heap) > 1 && sc.probed[top] != version {
			// Stale bound: re-probe at the current clock. The new bound
			// can only be larger, so a sift-down restores heap order.
			var st int
			var err error
			if pp != nil {
				st, err = pp.StallsPrepared(&sc.Prep[top], sc.Insts[top])
			} else {
				st, err = p.Stalls(sc.Insts[top])
			}
			if err != nil {
				return nil, -1, err
			}
			sc.probed[top] = version
			if t := clock + int64(st); t != sc.cachedT[top] {
				sc.cachedT[top] = t
				sc.siftDown(0, chainFirst)
			}
			continue
		}
		// Fresh root: provably the reference scan's pick.
		var issue int64
		var err error
		if pp != nil {
			_, issue, err = pp.IssuePrepared(&sc.Prep[top], sc.Insts[top])
		} else {
			_, issue, err = p.Issue(sc.Insts[top])
		}
		if err != nil {
			return nil, -1, err
		}
		if sc.traceOn {
			sc.fastTraceStep(s, top, int(issue-clock), issue)
		}
		clock = issue
		version++ // all outstanding probes are now lower bounds only
		if e := issue + int64(sc.Groups[top].Cycles); e > endCost {
			endCost = e
		}
		out = append(out, sc.Insts[top])
		sc.perm = append(sc.perm, top)
		sc.heapPop(chainFirst)
		for e := sc.succStart[top]; e < sc.succStart[top+1]; e++ {
			v := sc.succ[e]
			sc.npred[v]--
			if sc.npred[v] == 0 {
				sc.cachedT[v] = clock
				sc.probed[v] = -1
				sc.heapPush(v, chainFirst)
			}
		}
	}
	if len(out) != n {
		return nil, -1, fmt.Errorf("core: scheduler dropped instructions (%d of %d)", len(out), n)
	}
	return out, endCost, nil
}

// qLess orders queue entries by (earliest-issue bound asc, chain desc,
// original index asc) — the reference engine's priority with stalls
// replaced by the absolute-cycle bound, which orders identically at a
// common clock.
// ChainFirst flips the first two keys, mirroring the ablation.
func (sc *scratch) qLess(a, b int32, chainFirst bool) bool {
	if chainFirst {
		if sc.chain[a] != sc.chain[b] {
			return sc.chain[a] > sc.chain[b]
		}
		if sc.cachedT[a] != sc.cachedT[b] {
			return sc.cachedT[a] < sc.cachedT[b]
		}
		return a < b
	}
	if sc.cachedT[a] != sc.cachedT[b] {
		return sc.cachedT[a] < sc.cachedT[b]
	}
	if sc.chain[a] != sc.chain[b] {
		return sc.chain[a] > sc.chain[b]
	}
	return a < b
}

func (sc *scratch) heapPush(v int32, chainFirst bool) {
	sc.heap = append(sc.heap, v)
	i := len(sc.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !sc.qLess(sc.heap[i], sc.heap[parent], chainFirst) {
			break
		}
		sc.heap[i], sc.heap[parent] = sc.heap[parent], sc.heap[i]
		i = parent
	}
}

func (sc *scratch) heapPop(chainFirst bool) {
	last := len(sc.heap) - 1
	sc.heap[0] = sc.heap[last]
	sc.heap = sc.heap[:last]
	if last > 0 {
		sc.siftDown(0, chainFirst)
	}
}

func (sc *scratch) siftDown(i int, chainFirst bool) {
	n := len(sc.heap)
	for {
		least := i
		if l := 2*i + 1; l < n && sc.qLess(sc.heap[l], sc.heap[least], chainFirst) {
			least = l
		}
		if r := 2*i + 2; r < n && sc.qLess(sc.heap[r], sc.heap[least], chainFirst) {
			least = r
		}
		if least == i {
			return
		}
		sc.heap[i], sc.heap[least] = sc.heap[least], sc.heap[i]
		i = least
	}
}
