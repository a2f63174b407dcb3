package core

import (
	"fmt"
	"slices"
	"time"

	"eel/internal/sparc"
	"eel/internal/spawn"
)

// This file is the reference scheduling engine: the original two-pass
// implementation with a pairwise dependence-graph build and a full
// ready-list Stalls rescan per issue step. It is the ground truth the
// fast engine (depgraph.go, readyq.go) is differentially tested
// against, block for block and decision for decision; UseReferenceEngine
// (export_test.go) installs it on a scheduler through the refEngine hook.

// node is one instruction in the block's dependence DAG.
type node struct {
	inst  sparc.Inst
	index int // original position, the final tiebreak
	succs []edge
	npred int
	chain int // pass-1 dependence-chain length to block end, in cycles
}

type edge struct {
	to  *node
	lat int // minimum stall-free issue distance
}

// referenceStraightLine is the original two-pass implementation: pairwise
// DAG build, then a full ready-list Stalls rescan per issue step. It is
// the ground truth the fast engine is differentially tested against.
func (s *Scheduler) referenceStraightLine(w *worker, body []sparc.Inst) ([]sparc.Inst, error) {
	p := w.p
	var phaseT0 time.Time
	if w.tt != nil {
		phaseT0 = time.Now()
	}
	nodes, err := s.buildDAG(body)
	if err != nil {
		return nil, err
	}

	// Pass 1: backward dependence-chain lengths.
	for i := len(nodes) - 1; i >= 0; i-- {
		n := nodes[i]
		n.chain = 1
		for _, e := range n.succs {
			if c := e.lat + e.to.chain; c > n.chain {
				n.chain = c
			}
		}
	}
	if w.tt != nil {
		now := time.Now()
		w.tt.depgraphNs += now.Sub(phaseT0).Nanoseconds()
		phaseT0 = now
		defer func() { w.tt.readyNs += time.Since(phaseT0).Nanoseconds() }()
	}

	// Pass 2: forward list scheduling.
	p.Reset()
	ready := make([]*node, 0, len(nodes))
	for _, n := range nodes {
		if n.npred == 0 {
			ready = append(ready, n)
		}
	}
	out := make([]sparc.Inst, 0, len(body))
	var sts []int // per-ready stall probes, kept only while tracing
	for len(ready) > 0 {
		bestIdx := -1
		bestStalls := 0
		var best *node
		if w.sc.traceOn {
			sts = append(sts[:0], make([]int, len(ready))...)
		}
		for i, n := range ready {
			st, err := p.Stalls(n.inst)
			if err != nil {
				return nil, err
			}
			if sts != nil {
				sts[i] = st
			}
			if best == nil || s.better(st, n, bestStalls, best) {
				best, bestIdx, bestStalls = n, i, st
			}
		}
		_, issue, err := p.Issue(best.inst)
		if err != nil {
			return nil, err
		}
		if w.sc.traceOn {
			s.refTraceStep(w, ready, sts, bestIdx, bestStalls, issue)
		}
		out = append(out, best.inst)
		ready[bestIdx] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		for _, e := range best.succs {
			e.to.npred--
			if e.to.npred == 0 {
				ready = append(ready, e.to)
			}
		}
	}
	if len(out) != len(body) {
		return nil, fmt.Errorf("core: scheduler dropped instructions (%d of %d)", len(out), len(body))
	}
	return out, nil
}

// better reports whether candidate (stalls st, node n) beats the current
// best. Default priority: fewest stalls, then longest chain to block end,
// then original order.
func (s *Scheduler) better(st int, n *node, bestSt int, best *node) bool {
	if s.opts.ChainFirst {
		if n.chain != best.chain {
			return n.chain > best.chain
		}
		if st != bestSt {
			return st < bestSt
		}
		return n.index < best.index
	}
	if st != bestSt {
		return st < bestSt
	}
	if n.chain != best.chain {
		return n.chain > best.chain
	}
	return n.index < best.index
}

// buildDAG constructs the dependence DAG with the paper's memory rules.
func (s *Scheduler) buildDAG(body []sparc.Inst) ([]*node, error) {
	nodes := make([]*node, len(body))
	for i, inst := range body {
		nodes[i] = &node{inst: inst, index: i}
	}
	var usesI, defsI, usesJ, defsJ []sparc.Reg
	for i := 0; i < len(body); i++ {
		gi, err := s.model.GroupOf(body[i])
		if err != nil {
			return nil, err
		}
		usesI = body[i].Uses(usesI[:0])
		defsI = body[i].Defs(defsI[:0])
		for j := i + 1; j < len(body); j++ {
			usesJ = body[j].Uses(usesJ[:0])
			defsJ = body[j].Defs(defsJ[:0])

			lat := 0
			dep := false
			// RAW: i defines a register j uses.
			if r, ok := intersects(defsI, usesJ); ok {
				dep = true
				if l := s.rawLatency(gi, body[i], body[j], r); l > lat {
					lat = l
				}
			}
			// WAR and WAW: ordering edges with unit latency.
			if _, ok := intersects(usesI, defsJ); ok {
				dep = true
				if lat < 1 {
					lat = 1
				}
			}
			if _, ok := intersects(defsI, defsJ); ok {
				dep = true
				if lat < 1 {
					lat = 1
				}
			}
			// Memory ordering.
			if s.memConflict(body[i], body[j]) {
				dep = true
				if lat < 1 {
					lat = 1
				}
			}
			// Traps are scheduling barriers: nothing moves across them.
			if body[i].Op == sparc.OpTicc || body[j].Op == sparc.OpTicc {
				dep = true
				if lat < 1 {
					lat = 1
				}
			}
			if dep {
				nodes[i].succs = append(nodes[i].succs, edge{to: nodes[j], lat: lat})
				nodes[j].npred++
			}
		}
	}
	return nodes, nil
}

// rawLatency returns the minimum stall-free issue distance between a
// producer and a consumer of register r: the producer's availability cycle
// for r minus the consumer's read cycle for r.
func (s *Scheduler) rawLatency(gi *spawn.Group, prod, cons sparc.Inst, r sparc.Reg) int {
	avail := writeAvail(gi, prod, r)
	read := 1
	if gj, err := s.model.GroupOf(cons); err == nil {
		read = readCycle(gj, cons, r)
	}
	if l := avail - read; l > 0 {
		return l
	}
	return 0
}

// tieReason names the priority key that separated the reference
// engine's winner from its runner-up, in better()'s key order.
func (s *Scheduler) tieReason(bestSt int, best *node, runSt int, run *node) string {
	if run == nil {
		return "only"
	}
	if s.opts.ChainFirst {
		if run.chain != best.chain {
			return "chain"
		}
		if runSt != bestSt {
			return "stalls"
		}
		return "index"
	}
	if runSt != bestSt {
		return "stalls"
	}
	if run.chain != best.chain {
		return "chain"
	}
	return "index"
}

// refTraceStep records one reference-engine decision: ready is the live
// ready list, sts the stall probe per entry, best its winning index.
func (s *Scheduler) refTraceStep(w *worker, ready []*node, sts []int, bestIdx, bestStalls int, issue int64) {
	best := ready[bestIdx]
	rd := make([]int32, len(ready))
	for i, n := range ready {
		rd[i] = int32(n.index)
	}
	slices.Sort(rd)
	var run *node
	runSt := 0
	for i, n := range ready {
		if i == bestIdx {
			continue
		}
		if run == nil || s.better(sts[i], n, runSt, run) {
			run, runSt = n, sts[i]
		}
	}
	w.sc.steps = append(w.sc.steps, TraceStep{
		Ready:  rd,
		Chosen: int32(best.index),
		Inst:   best.inst.String(),
		Stalls: bestStalls,
		Issue:  issue,
		Reason: s.tieReason(bestStalls, best, runSt, run),
	})
}
