package core

import (
	"math/bits"

	"eel/internal/sparc"
	"eel/internal/spawn"
)

// This file is the fast engine's dependence-graph builder. It produces
// exactly the dependence pairs and pair latencies of the reference
// pairwise builder (reference_test.go) — the same RAW first-intersect
// rule, the same WAR/WAW/memory/trap unit latencies — but discovers the
// pairs through per-register last-writer/last-reader index tables plus
// memory-domain and trap-barrier lists instead of intersecting every
// (i, j) pair, and stores nodes and edges in flat scratch arenas that a
// worker recycles across blocks. Per block it allocates nothing once the
// arenas have grown to the block size.
//
// Equivalence to the reference builder is load-bearing (chain lengths
// are a scheduling priority), so the builder re-derives each discovered
// pair's dependence kinds and latency from per-instruction register
// bitmasks with the reference rules, rather than trusting the table that
// surfaced the pair. The tables only bound WHICH pairs can depend; the masks
// decide HOW, byte-for-byte like the reference.

// regMask is a dense bitset over sparc.Reg (NumRegs = 67: bits 0..63 in
// lo, 64..66 in hi). %g0 is never set — the reference intersects()
// skips it — so mask intersections need no post-filtering.
type regMask struct {
	lo, hi uint64
}

func (m *regMask) set(r sparc.Reg) {
	if r == sparc.G0 {
		return
	}
	if r < 64 {
		m.lo |= 1 << r
	} else {
		m.hi |= 1 << (r - 64)
	}
}

// intersect reports whether the masks share a register.
func (m regMask) intersects(o regMask) bool {
	return m.lo&o.lo|m.hi&o.hi != 0
}

// first returns the lowest-numbered shared register. Instruction def
// lists are emitted in ascending register order (rd, rd+1, then the
// ICC/FCC/Y pseudo-registers), so the lowest shared bit is exactly the
// register the reference intersects() returns for (defs, uses) pairs.
func (m regMask) first(o regMask) sparc.Reg {
	if lo := m.lo & o.lo; lo != 0 {
		return sparc.Reg(bits.TrailingZeros64(lo))
	}
	return sparc.Reg(64 + bits.TrailingZeros64(m.hi&o.hi))
}

// scratch holds one worker's reusable scheduling state: the dependence
// graph arenas, the per-register discovery tables and the ready queue.
// A scratch is owned by a single goroutine (it travels with the worker's
// pipeline state through the scheduler's pool) and is reset per block.
type scratch struct {
	// BlockSoA holds the flat per-instruction arrays (instructions,
	// timing groups, hazard flags, register masks, prepared placement
	// inputs) every pass indexes; see soa.go.
	BlockSoA

	// arena backs the emitted schedule slices (and cache-hit copies), so
	// steady-state scheduling allocates one chunk per ~8k instructions
	// instead of one slice per block.
	arena instArena
	// bodyBuf is the reusable CTI body staging buffer: the block minus
	// its CTI and (canonical-nop) delay slot.
	bodyBuf []sparc.Inst
	// Reusable register sets for the delay-slot legality check.
	ctiUses, ctiDefs, candRegs []sparc.Reg

	// Per-node arrays, length n.
	stamp   []int32 // last j that examined this node as a candidate, +1
	npred   []int32
	chain   []int32
	cachedT []int64 // lower bound on the node's absolute issue cycle
	probed  []int32 // ready-queue version cachedT was probed at, -1 if never

	// Flat edge arenas. Predecessor edges of node j occupy
	// predTo/predLat[predStart[j]:predStart[j+1]] (built in j order);
	// successor lists occupy succ[succStart[i]:succStart[i+1]].
	predStart []int32
	predTo    []int32
	predLat   []int32
	succStart []int32
	succ      []int32
	cursor    []int32

	// Discovery tables: every prior writer/reader per register, every
	// prior memory op per aliasing domain, every prior trap.
	writers [sparc.NumRegs][]int32
	readers [sparc.NumRegs][]int32
	touched []sparc.Reg // registers with non-empty tables, for O(touched) reset
	loads   [2][]int32  // by Instrumented flag
	stores  [2][]int32
	traps   []int32

	heap []int32

	// prepOK marks the SoA's Prep slots valid for the current body, when
	// the oracle supports preparing (pipe.FastState); CTI blocks append
	// up to three extra slots (the CTI, a nop, an odd delay-slot form)
	// for cost replays.
	prepOK bool

	// Decision-trace collection (trace.go): traceOn is set per block by
	// scheduleBlockOn; both engines append their steps here.
	traceOn bool
	steps   []TraceStep
	// perm records the emitted schedule as body indices (out[k] =
	// body[perm[k]]); beforeIdx/costIdx map replay sequences onto prep
	// slots for the never-costs-more guard.
	perm      []int32
	beforeIdx []int32
	costIdx   []int32
}

// reset prepares the arenas for a block of n instructions, reusing all
// prior capacity. The SoA arrays are filled separately by Build.
func (sc *scratch) reset(body []sparc.Inst) {
	n := len(body)
	if cap(sc.stamp) < n {
		sc.stamp = make([]int32, n)
		sc.npred = make([]int32, n)
		sc.chain = make([]int32, n)
		sc.cachedT = make([]int64, n)
		sc.probed = make([]int32, n)
		sc.predStart = make([]int32, n+1)
		sc.succStart = make([]int32, n+1)
		sc.cursor = make([]int32, n+1)
	}
	sc.stamp = sc.stamp[:n]
	sc.npred = sc.npred[:n]
	sc.chain = sc.chain[:n]
	sc.cachedT = sc.cachedT[:n]
	sc.probed = sc.probed[:n]
	sc.predStart = sc.predStart[:n+1]
	sc.succStart = sc.succStart[:n+1]
	sc.cursor = sc.cursor[:n+1]
	clear(sc.stamp)
	sc.predTo = sc.predTo[:0]
	sc.predLat = sc.predLat[:0]
	sc.succ = sc.succ[:0]
	for _, r := range sc.touched {
		sc.writers[r] = sc.writers[r][:0]
		sc.readers[r] = sc.readers[r][:0]
	}
	sc.touched = sc.touched[:0]
	sc.prepOK = false
	sc.perm = sc.perm[:0]
	sc.loads[0] = sc.loads[0][:0]
	sc.loads[1] = sc.loads[1][:0]
	sc.stores[0] = sc.stores[0][:0]
	sc.stores[1] = sc.stores[1][:0]
	sc.traps = sc.traps[:0]
	sc.heap = sc.heap[:0]
}

// touch registers r in the reset list the first time either table is
// appended to.
func (sc *scratch) touch(r sparc.Reg) {
	if len(sc.writers[r]) == 0 && len(sc.readers[r]) == 0 {
		sc.touched = append(sc.touched, r)
	}
}

// buildDepGraph fills sc with the dependence DAG of body, equal edge for
// edge (as an (i, j, lat) multiset) to the reference builder, and
// computes pass 1's dependence-chain lengths. With usePrep the timing
// groups come from the caller's prepare pass (sc.Prep) instead of fresh
// model lookups.
func (s *Scheduler) buildDepGraph(sc *scratch, body []sparc.Inst, usePrep bool) error {
	sc.reset(body)
	n := len(body)
	if err := sc.Build(s.model, body, usePrep); err != nil {
		return err
	}

	conservative := s.opts.ConservativeMem
	for j := 0; j < n; j++ {
		sc.predStart[j] = int32(len(sc.predTo))
		j32 := int32(j)
		um, dm := sc.useMask[j], sc.defMask[j]
		fj := sc.Flags[j]

		// RAW candidates: prior writers of every register j uses. The bit
		// loops are unrolled over the mask halves to keep the hot path
		// free of closure calls.
		for b := um.lo; b != 0; b &= b - 1 {
			for _, i := range sc.writers[bits.TrailingZeros64(b)] {
				sc.addPred(s, i, j32)
			}
		}
		for b := um.hi; b != 0; b &= b - 1 {
			for _, i := range sc.writers[64+bits.TrailingZeros64(b)] {
				sc.addPred(s, i, j32)
			}
		}
		// WAW and WAR candidates: prior writers and readers of every
		// register j defines.
		for b := dm.lo; b != 0; b &= b - 1 {
			r := bits.TrailingZeros64(b)
			for _, i := range sc.writers[r] {
				sc.addPred(s, i, j32)
			}
			for _, i := range sc.readers[r] {
				sc.addPred(s, i, j32)
			}
		}
		for b := dm.hi; b != 0; b &= b - 1 {
			r := 64 + bits.TrailingZeros64(b)
			for _, i := range sc.writers[r] {
				sc.addPred(s, i, j32)
			}
			for _, i := range sc.readers[r] {
				sc.addPred(s, i, j32)
			}
		}
		// Memory candidates, per the paper's aliasing domains.
		if fj&(FlagLoad|FlagStore) != 0 {
			dom := 0
			if fj&FlagInstrumented != 0 {
				dom = 1
			}
			if fj&FlagStore != 0 {
				// A store conflicts with prior loads and stores.
				for _, i := range sc.loads[dom] {
					sc.addPred(s, i, j32)
				}
				for _, i := range sc.stores[dom] {
					sc.addPred(s, i, j32)
				}
				if conservative {
					for _, i := range sc.loads[1-dom] {
						sc.addPred(s, i, j32)
					}
					for _, i := range sc.stores[1-dom] {
						sc.addPred(s, i, j32)
					}
				}
			} else {
				// A load conflicts with prior stores only.
				for _, i := range sc.stores[dom] {
					sc.addPred(s, i, j32)
				}
				if conservative {
					for _, i := range sc.stores[1-dom] {
						sc.addPred(s, i, j32)
					}
				}
			}
		}
		// Trap barriers: a trap depends on everything before it, and
		// everything after a trap depends on it.
		if fj&FlagTrap != 0 {
			for i := int32(0); i < j32; i++ {
				sc.addPred(s, i, j32)
			}
		} else {
			for _, i := range sc.traps {
				sc.addPred(s, i, j32)
			}
		}

		// Register j in the discovery tables for later instructions.
		for b := um.lo; b != 0; b &= b - 1 {
			r := sparc.Reg(bits.TrailingZeros64(b))
			sc.touch(r)
			sc.readers[r] = append(sc.readers[r], j32)
		}
		for b := um.hi; b != 0; b &= b - 1 {
			r := sparc.Reg(64 + bits.TrailingZeros64(b))
			sc.touch(r)
			sc.readers[r] = append(sc.readers[r], j32)
		}
		for b := dm.lo; b != 0; b &= b - 1 {
			r := sparc.Reg(bits.TrailingZeros64(b))
			sc.touch(r)
			sc.writers[r] = append(sc.writers[r], j32)
		}
		for b := dm.hi; b != 0; b &= b - 1 {
			r := sparc.Reg(64 + bits.TrailingZeros64(b))
			sc.touch(r)
			sc.writers[r] = append(sc.writers[r], j32)
		}
		if fj&FlagLoad != 0 {
			dom := 0
			if fj&FlagInstrumented != 0 {
				dom = 1
			}
			sc.loads[dom] = append(sc.loads[dom], j32)
		}
		if fj&FlagStore != 0 {
			dom := 0
			if fj&FlagInstrumented != 0 {
				dom = 1
			}
			sc.stores[dom] = append(sc.stores[dom], j32)
		}
		if fj&FlagTrap != 0 {
			sc.traps = append(sc.traps, j32)
		}
	}
	sc.predStart[n] = int32(len(sc.predTo))

	// npred and pass 1: backward dependence-chain lengths. Processing j
	// descending, chain[j] is final before its predecessor relaxations
	// run (all successors of j have higher indices).
	for i := range sc.chain {
		sc.chain[i] = 1
		sc.npred[i] = sc.predStart[i+1] - sc.predStart[i]
	}
	for j := n - 1; j >= 0; j-- {
		cj := sc.chain[j]
		for e := sc.predStart[j]; e < sc.predStart[j+1]; e++ {
			i := sc.predTo[e]
			if c := sc.predLat[e] + cj; c > sc.chain[i] {
				sc.chain[i] = c
			}
		}
	}

	// Successor adjacency (issue-time npred updates) by counting sort
	// over the predecessor edges.
	clear(sc.succStart)
	for _, i := range sc.predTo {
		sc.succStart[i+1]++
	}
	for i := 0; i < n; i++ {
		sc.succStart[i+1] += sc.succStart[i]
	}
	copy(sc.cursor, sc.succStart)
	if cap(sc.succ) < len(sc.predTo) {
		sc.succ = make([]int32, len(sc.predTo))
	}
	sc.succ = sc.succ[:len(sc.predTo)]
	for j := 0; j < n; j++ {
		for e := sc.predStart[j]; e < sc.predStart[j+1]; e++ {
			i := sc.predTo[e]
			sc.succ[sc.cursor[i]] = int32(j)
			sc.cursor[i]++
		}
	}
	return nil
}

// addPred records the dependence edge (i -> j), once per pair, with the
// reference builder's exact latency rules. Candidates may be offered
// multiple times (a pair can surface through several tables); the stamp
// dedups them, and the masks re-derive every dependence kind so the
// combined latency matches the reference builder's pairwise computation.
func (sc *scratch) addPred(s *Scheduler, i, j int32) {
	if sc.stamp[i] == j+1 {
		return
	}
	sc.stamp[i] = j + 1

	lat := int32(0)
	dep := false
	// RAW: i defines a register j uses; latency from the first (lowest)
	// shared register, like the reference intersects().
	if sc.defMask[i].intersects(sc.useMask[j]) {
		dep = true
		r := sc.defMask[i].first(sc.useMask[j])
		if l := int32(rawLatencyOf(sc.Groups[i], sc.Insts[i], sc.Groups[j], sc.Insts[j], r)); l > lat {
			lat = l
		}
	}
	// WAR and WAW: ordering edges with unit latency.
	if sc.useMask[i].intersects(sc.defMask[j]) || sc.defMask[i].intersects(sc.defMask[j]) {
		dep = true
		if lat < 1 {
			lat = 1
		}
	}
	// Memory ordering.
	if memConflictFlags(sc.Flags[i], sc.Flags[j], s.opts.ConservativeMem) {
		dep = true
		if lat < 1 {
			lat = 1
		}
	}
	// Traps are scheduling barriers.
	if (sc.Flags[i]|sc.Flags[j])&FlagTrap != 0 {
		dep = true
		if lat < 1 {
			lat = 1
		}
	}
	if !dep {
		return
	}
	sc.predTo = append(sc.predTo, i)
	sc.predLat = append(sc.predLat, lat)
}

// memConflictFlags is memConflict over the cached per-node flags.
func memConflictFlags(fi, fj InstFlags, conservative bool) bool {
	if fi&(FlagLoad|FlagStore) == 0 || fj&(FlagLoad|FlagStore) == 0 {
		return false
	}
	if fi&FlagLoad != 0 && fj&FlagLoad != 0 {
		return false // loads never conflict
	}
	if !conservative && (fi^fj)&FlagInstrumented != 0 {
		return false // instrumentation memory is disjoint from program memory
	}
	return true
}

// rawLatencyOf is rawLatency with the consumer's timing group hoisted by
// the caller (the fast builder resolves every group once per block).
func rawLatencyOf(gi *spawn.Group, prod sparc.Inst, gj *spawn.Group, cons sparc.Inst, r sparc.Reg) int {
	avail := writeAvail(gi, prod, r)
	read := readCycle(gj, cons, r)
	if l := avail - read; l > 0 {
		return l
	}
	return 0
}
