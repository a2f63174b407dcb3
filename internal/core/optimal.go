package core

import (
	"sync"

	"eel/internal/obs"
	"eel/internal/pipe"
	"eel/internal/sparc"
)

// This file is EngineOptimal: a branch-and-bound exact scheduler that
// turns the greedy list scheduler from a folk heuristic into a measured
// policy. After the greedy fast pass runs (seeding the incumbent and
// filling the worker's scratch arenas), optimalImprove searches the
// space of dependence-respecting body permutations depth-first over the
// same pipe.FastState oracle the greedy engine probes, rewinding
// speculative issues through pipe.Checkpoint instead of replaying
// prefixes. The search either proves the greedy schedule optimal, or
// returns a strictly cheaper order — which then still passes the
// ordinary never-costs-more guard and VerifyDependences like any other
// schedule.
//
// Cost model and emission policy are identical to the greedy engine's:
// the objective is the modeled cycle count of the full emitted sequence
// (sequenceCost semantics — max over instructions of absolute issue
// cycle plus remaining group occupancy), blocks ending in a CTI keep
// the CTI pinned second-to-last with the delay slot refilled by the
// last scheduled instruction when delaySlotLegal allows it (a nop
// otherwise), and annulled branches are never reordered. For CTI blocks
// the incrementally tracked body cost is a lower bound on the emitted
// cost — the oracle is monotone, so inserting the CTI can only push
// issues later — which keeps body-level pruning admissible; only leaves
// pay a full emission replay.
//
// Pruning, all of it sound:
//
//   - Critical path: cpOut[i] bounds the cycles from i's issue to the
//     block's end along dependence chains. Edge latencies come from the
//     oracle's own resolved register accesses (pipe.Prepared.Accesses),
//     not the dependence builder's pair latencies — readyq.go documents
//     that those are not provably conservative against the oracle's
//     placement rules, and an inadmissible bound here would silently
//     turn "proven optimal" into "probably optimal".
//   - Resource floor: remaining held-slot demand per unit must fit the
//     machine's per-cycle copy counts (resourceFloor), from the
//     compiled tables' sparse held-use lists.
//   - Dominance: among simultaneously ready candidates, identical
//     instruction values with identical successor edges are
//     interchangeable; only the lowest-index one is expanded.
//
// A node budget (Options.OptimalBudget) bounds each block's search;
// exhaustion keeps the greedy incumbent (or the best improvement found
// so far) and marks the block unproven, which also keeps it out of the
// schedule cache (scheduleBlockOn) — every cached optimal-engine entry
// is a certified optimum. The budget counts speculative issues, not
// wall time, so results and CI goldens are deterministic.

const (
	// DefaultOptimalBudget is the per-block node budget: high enough that
	// blocks at or below optimalSmallBlock instructions essentially
	// always finish (the schedgap acceptance bar is ≥90% proven), low
	// enough that a pathological mid-size block costs milliseconds, not
	// minutes.
	DefaultOptimalBudget = 200_000
	// DefaultOptimalMaxInsts caps the searched body size. The paper's
	// benchmarks average 2.9–49.0 instructions per dynamic block; above
	// ~18 the permutation space is hopeless under any honest budget, so
	// larger bodies skip the search instead of burning the full budget to
	// learn nothing.
	DefaultOptimalMaxInsts = 18
	// optimalSmallBlock is the full block length (CTI and delay slot
	// included) below which the proven-rate acceptance criterion applies:
	// ≤12-instruction blocks, which the paper says is most of them.
	optimalSmallBlock = 12
)

// optimalBudget resolves Options.OptimalBudget: 0 selects the default,
// negative disables the search (every eligible block keeps greedy and
// counts as budget-exhausted).
func (o Options) optimalBudget() int {
	if o.OptimalBudget != 0 {
		return o.OptimalBudget
	}
	return DefaultOptimalBudget
}

// optimalMaxInsts resolves Options.OptimalMaxInsts (0 selects the
// default).
func (o Options) optimalMaxInsts() int {
	if o.OptimalMaxInsts != 0 {
		return o.OptimalMaxInsts
	}
	return DefaultOptimalMaxInsts
}

// OptimalStats is a snapshot of an EngineOptimal scheduler's search
// outcomes, for gap reporting (cmd/schedgap) and tests.
type OptimalStats struct {
	// Blocks counts every block the engine saw; Proven counts those whose
	// emitted schedule carries an exhausted-search certificate. Trivial
	// blocks — bodies of at most one instruction, annulled branches —
	// count as proven: the policy pins them, so no alternative exists.
	Blocks, Proven int64
	// SmallBlocks and SmallProven restrict the same counts to blocks of
	// at most optimalSmallBlock instructions.
	SmallBlocks, SmallProven int64
	// BudgetExhausted counts searches stopped by the node budget;
	// Oversized is the subset skipped outright because the body exceeded
	// OptimalMaxInsts.
	BudgetExhausted, Oversized int64
	// Improved counts blocks where the search beat greedy; CyclesSaved is
	// the summed modeled-cycle improvement.
	Improved, CyclesSaved int64
	// CacheBypasses counts unproven results withheld from the schedule
	// cache; Nodes is the total speculative issues across all searches;
	// SearchErrors counts searches abandoned on an oracle error (the
	// block keeps its greedy schedule).
	CacheBypasses, Nodes, SearchErrors int64
}

// OptimalStats returns the exact-search counters. All zeros unless the
// scheduler was built with Engine == EngineOptimal.
func (s *Scheduler) OptimalStats() OptimalStats {
	a := s.opt
	if a == nil {
		return OptimalStats{}
	}
	a.mu.Lock()
	st := a.st
	a.mu.Unlock()
	return st
}

// optAgg aggregates search outcomes across workers and mirrors them
// into obs counters. A nil *optAgg (greedy engines) is a no-op on every
// method, matching the registry's disabled-is-nil convention.
type optAgg struct {
	mu sync.Mutex
	st OptimalStats

	blocks, proven, smallBlocks, smallProven *obs.Counter
	exhausted, oversized, improved, saved    *obs.Counter
	bypasses, nodes, errs                    *obs.Counter
}

// newOptAgg builds the aggregate; reg may be nil (the obs handles
// become no-ops, the snapshot still counts).
func newOptAgg(reg *obs.Registry) *optAgg {
	return &optAgg{
		blocks:      reg.Counter("core.optimal_blocks_total"),
		proven:      reg.Counter("core.optimal_proven_total"),
		smallBlocks: reg.Counter("core.optimal_small_blocks_total"),
		smallProven: reg.Counter("core.optimal_small_proven_total"),
		exhausted:   reg.Counter("core.optimal_budget_exhausted"),
		oversized:   reg.Counter("core.optimal_oversized_total"),
		improved:    reg.Counter("core.optimal_improved_total"),
		saved:       reg.Counter("core.optimal_cycles_saved_total"),
		bypasses:    reg.Counter("core.optimal_cache_bypass_total"),
		nodes:       reg.Counter("core.optimal_nodes_total"),
		errs:        reg.Counter("core.optimal_search_errors_total"),
	}
}

// sawBlock counts a block entering the engine.
func (a *optAgg) sawBlock(blockLen int) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.st.Blocks++
	if blockLen <= optimalSmallBlock {
		a.st.SmallBlocks++
	}
	a.mu.Unlock()
	a.blocks.Inc()
	if blockLen <= optimalSmallBlock {
		a.smallBlocks.Inc()
	}
}

// provenBlock counts a block whose emitted schedule is certified
// optimal.
func (a *optAgg) provenBlock(blockLen int) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.st.Proven++
	if blockLen <= optimalSmallBlock {
		a.st.SmallProven++
	}
	a.mu.Unlock()
	a.proven.Inc()
	if blockLen <= optimalSmallBlock {
		a.smallProven.Inc()
	}
}

// hitProven counts a schedule-cache hit. Hits are always certified:
// unproven results never enter the cache.
func (a *optAgg) hitProven(blockLen int) {
	if a == nil {
		return
	}
	a.sawBlock(blockLen)
	a.provenBlock(blockLen)
}

// exhaustedBlock counts a budget-exhausted search; oversized
// additionally marks bodies skipped for exceeding OptimalMaxInsts.
func (a *optAgg) exhaustedBlock(oversized bool) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.st.BudgetExhausted++
	if oversized {
		a.st.Oversized++
	}
	a.mu.Unlock()
	a.exhausted.Inc()
	if oversized {
		a.oversized.Inc()
	}
}

// improvedBlock counts a search that beat greedy by saved cycles.
func (a *optAgg) improvedBlock(saved int64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.st.Improved++
	a.st.CyclesSaved += saved
	a.mu.Unlock()
	a.improved.Inc()
	a.saved.Add(saved)
}

// cacheBypassed counts an unproven result withheld from the cache.
func (a *optAgg) cacheBypassed() {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.st.CacheBypasses++
	a.mu.Unlock()
	a.bypasses.Inc()
}

// searchedNodes adds a finished search's node count.
func (a *optAgg) searchedNodes(n int64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.st.Nodes += n
	a.mu.Unlock()
	a.nodes.Add(n)
}

// searchError counts a search abandoned on an oracle error.
func (a *optAgg) searchError() {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.st.SearchErrors++
	a.mu.Unlock()
	a.errs.Inc()
}

// optSearch is one worker's private branch-and-bound state. Everything
// is flat and recycled across blocks; after warm-up a search allocates
// only when it finds an improvement (the new output slice).
type optSearch struct {
	fs *pipe.FastState // search oracle: the worker's

	n      int // body length
	body   []sparc.Inst
	hasCTI bool
	cti    sparc.Inst

	// Prepared placement inputs: body[i] in prep[i]; CTI blocks add the
	// CTI at slot n and a nop at slot n+1 for leaf emission replays.
	prep      []pipe.Prepared
	cycles    []int64 // per body inst: group occupancy after issue
	ctiCycles int64
	nopCycles int64
	ctiLegal  []bool // per body inst: may it fill the delay slot?

	// Dependence graph, successor-major, with oracle-derived latencies.
	succStart, succTo []int32
	succLat           []int32
	npred             []int32
	chain             []int32 // greedy pass-1 priority, for child ordering
	cpOut             []int64

	// Resource-floor tables: per-node per-unit held-slot totals and
	// exclusive last-use offsets (n×nu, row-major), plus the live
	// remaining demand per unit.
	nu       int
	counts   []int32
	unitTot  []int32
	unitLast []int32
	demand   []int64
	spanBuf  []int64

	// DFS state.
	earliest  []int64 // per node: oracle-sound lower bound on issue cycle
	scheduled []bool
	perm      []int32
	best      []int32
	snaps     []pipe.Checkpoint
	cand      []int32 // per-depth candidate lists, n×n flat
	stallBuf  []int64 // per-depth candidate sort keys, n×n flat
	undoNode  []int32 // earliest[] undo log
	undoVal   []int64

	nodes     int
	budget    int
	incumbent int64
	improved  bool
	exhausted bool
}

// optimalImprove runs the exact search against the greedy result of the
// block just scheduled (the worker's scratch still holds its dependence
// graph). It returns a strictly cheaper output and true, or greedyOut
// and false; search failures (budget, oracle errors) fall back to
// greedy and are counted, never surfaced — the greedy result is always
// safe to emit.
func (s *Scheduler) optimalImprove(w *worker, block, greedyOut []sparc.Inst) ([]sparc.Inst, bool) {
	w.optUnproven = false
	s.opt.sawBlock(len(block))

	n := len(block)
	hasCTI := false
	var cti sparc.Inst
	bn := n
	if n >= 2 && block[n-2].IsCTI() {
		if block[n-2].Annul {
			// An annulled delay slot executes conditionally; the policy
			// pins the whole block, so the unchanged schedule is optimal
			// by definition.
			s.opt.provenBlock(n)
			return greedyOut, false
		}
		hasCTI = true
		cti = block[n-2]
		bn = n - 2
		if !block[n-1].IsNop() {
			bn = n - 1 // the old delay-slot instruction joined the body
		}
	}
	if bn <= 1 {
		// Nothing to permute (and for these sizes the greedy pass never
		// built a dependence graph — the scratch must not be consulted).
		s.opt.provenBlock(n)
		return greedyOut, false
	}
	if bn > s.opts.optimalMaxInsts() {
		w.optUnproven = true
		s.opt.exhaustedBlock(true)
		return greedyOut, false
	}

	if w.opt == nil {
		w.opt = &optSearch{}
	}
	o := w.opt
	if err := o.init(s, w, hasCTI, cti); err != nil {
		w.optUnproven = true
		s.opt.searchError()
		return greedyOut, false
	}
	// Seed the incumbent with the guarded baseline: the cheaper of the
	// greedy schedule and the original order. The never-costs-more guard
	// would restore the original anyway when greedy regressed, so seeding
	// with the raw greedy cost would let the search "win" against a
	// schedule the engine was never going to emit — rewriting blocks
	// without improving them. The search only ever replaces the incumbent
	// with something strictly cheaper, so EngineOptimal can never emit
	// worse than EngineFast, and Improved/CyclesSaved measure real gains
	// over the greedy engine's output.
	inc, err := s.sequenceCost(o.fs, greedyOut)
	if err != nil {
		w.optUnproven = true
		s.opt.searchError()
		return greedyOut, false
	}
	if !blocksEqual(greedyOut, block) {
		bc, err := s.sequenceCost(o.fs, block)
		if err != nil {
			w.optUnproven = true
			s.opt.searchError()
			return greedyOut, false
		}
		if bc < inc {
			inc = bc
		}
	}
	o.incumbent = inc
	o.budget = s.opts.optimalBudget()

	o.fs.Reset()
	err = o.dfs(0, 0)
	s.opt.searchedNodes(int64(o.nodes))
	if err != nil {
		w.optUnproven = true
		s.opt.searchError()
		return greedyOut, false
	}
	if o.exhausted {
		w.optUnproven = true
		s.opt.exhaustedBlock(false)
	} else {
		s.opt.provenBlock(n)
	}
	if !o.improved {
		return greedyOut, false
	}

	// Rebuild the emitted sequence from the winning permutation, with
	// scheduleBlockRaw's exact CTI reinsertion policy.
	out := make([]sparc.Inst, 0, bn+2)
	if hasCTI {
		last := o.best[o.n-1]
		if o.ctiLegal[last] {
			for _, i := range o.best[:o.n-1] {
				out = append(out, o.body[i])
			}
			out = append(out, cti, o.body[last])
		} else {
			for _, i := range o.best {
				out = append(out, o.body[i])
			}
			out = append(out, cti, sparc.NewNop())
		}
	} else {
		for _, i := range o.best {
			out = append(out, o.body[i])
		}
	}
	if blocksEqual(out, greedyOut) {
		// Unreachable (a strict cost improvement cannot re-derive the
		// same sequence), but cheap insurance against ever looping the
		// guard.
		return greedyOut, false
	}
	s.opt.improvedBlock(inc - o.incumbent)
	return out, true
}

// init sizes the search state for the worker's current scratch graph
// and derives the bound tables. The scratch must hold the block's
// dependence graph — the greedy pass just built it; EngineOptimal
// always routes scheduleStraightLine through the fast path.
func (o *optSearch) init(s *Scheduler, w *worker, hasCTI bool, cti sparc.Inst) error {
	sc := &w.sc
	n := len(sc.Insts)
	o.n = n
	o.body = sc.Insts
	o.hasCTI = hasCTI
	o.cti = cti
	o.nodes = 0
	o.improved = false
	o.exhausted = false

	// EngineOptimal is only built by New, whose workers always carry a
	// FastState: the search needs its prepared probes and checkpoints.
	o.fs = w.p.(*pipe.FastState)

	tab := s.model.Compiled()
	o.nu = len(tab.UnitCounts)
	o.counts = tab.UnitCounts
	o.grow(n)

	// Prepared inputs: the body, then CTI and nop slots for leaf
	// replays. sc.Prep is not reused even when valid — the guard's
	// beforeIdx may still reference its slots.
	for i, inst := range o.body {
		p, err := o.fs.Prepare(inst)
		if err != nil {
			return err
		}
		o.prep[i] = p
		o.cycles[i] = int64(p.Group().Cycles)
	}
	if hasCTI {
		p, err := o.fs.Prepare(cti)
		if err != nil {
			return err
		}
		o.prep[n] = p
		o.ctiCycles = int64(p.Group().Cycles)
		p, err = o.fs.Prepare(sparc.NewNop())
		if err != nil {
			return err
		}
		o.prep[n+1] = p
		o.nopCycles = int64(p.Group().Cycles)
		for i, inst := range o.body {
			o.ctiLegal[i] = delaySlotLegal(cti, inst)
		}
	}

	// Successor adjacency with latencies, rebuilt from the scratch's
	// predecessor edges by counting sort. The builder's pair latencies
	// order the greedy ready queue but are not provably sound against
	// the oracle, so each edge's bound latency is re-derived from the
	// prepared register accesses (oracleEdgeLat); the builder's numbers
	// survive only in chain, the child-ordering priority. npred is
	// recomputed from predStart because the greedy pass consumed
	// sc.npred (runFastList decrements it to zero).
	clear(o.succStart)
	ne := len(sc.predTo)
	if cap(o.succTo) < ne {
		o.succTo = make([]int32, ne)
		o.succLat = make([]int32, ne)
	}
	o.succTo = o.succTo[:ne]
	o.succLat = o.succLat[:ne]
	for _, i := range sc.predTo {
		o.succStart[i+1]++
	}
	for i := 0; i < n; i++ {
		o.succStart[i+1] += o.succStart[i]
	}
	cursor := o.best[:n] // free as scratch until the first leaf improves
	copy(cursor, o.succStart[:n])
	for j := 0; j < n; j++ {
		o.npred[j] = sc.predStart[j+1] - sc.predStart[j]
		for e := sc.predStart[j]; e < sc.predStart[j+1]; e++ {
			i := sc.predTo[e]
			o.succTo[cursor[i]] = int32(j)
			o.succLat[cursor[i]] = oracleEdgeLat(&o.prep[i], &o.prep[j])
			cursor[i]++
		}
	}
	copy(o.chain, sc.chain)

	criticalPathsOut(n, o.succStart, o.succTo, o.succLat, o.cycles, o.cpOut)

	// Resource tables from the compiled groups' sparse held-use lists.
	clear(o.unitTot)
	clear(o.unitLast)
	clear(o.demand)
	for i := range o.body {
		cg := &tab.Groups[o.prep[i].Group().ID]
		row := i * o.nu
		for _, e := range cg.NZ {
			o.unitTot[row+e.Unit] += int32(e.Num)
			if last := int32(e.Cycle + 1); last > o.unitLast[row+e.Unit] {
				o.unitLast[row+e.Unit] = last
			}
		}
		for u := 0; u < o.nu; u++ {
			o.demand[u] += int64(o.unitTot[row+u])
		}
	}

	clear(o.earliest)
	for i := range o.scheduled {
		o.scheduled[i] = false
	}
	o.perm = o.perm[:0]
	o.undoNode = o.undoNode[:0]
	o.undoVal = o.undoVal[:0]
	return nil
}

// grow sizes the per-node arrays for a body of n instructions.
func (o *optSearch) grow(n int) {
	if cap(o.prep) < n+2 {
		o.prep = make([]pipe.Prepared, n+2)
		o.cycles = make([]int64, n)
		o.ctiLegal = make([]bool, n)
		o.succStart = make([]int32, n+1)
		o.npred = make([]int32, n)
		o.chain = make([]int32, n)
		o.cpOut = make([]int64, n)
		o.earliest = make([]int64, n)
		o.scheduled = make([]bool, n)
		o.perm = make([]int32, 0, n)
		o.best = make([]int32, n)
		o.snaps = make([]pipe.Checkpoint, n)
		o.cand = make([]int32, n*n)
		o.stallBuf = make([]int64, n*n)
	}
	o.prep = o.prep[:n+2]
	o.cycles = o.cycles[:n]
	o.ctiLegal = o.ctiLegal[:n]
	o.succStart = o.succStart[:n+1]
	o.npred = o.npred[:n]
	o.chain = o.chain[:n]
	o.cpOut = o.cpOut[:n]
	o.earliest = o.earliest[:n]
	o.scheduled = o.scheduled[:n]
	o.best = o.best[:n]
	o.snaps = o.snaps[:n]
	o.cand = o.cand[:n*n]
	o.stallBuf = o.stallBuf[:n*n]
	if cap(o.unitTot) < n*o.nu {
		o.unitTot = make([]int32, n*o.nu)
		o.unitLast = make([]int32, n*o.nu)
	}
	o.unitTot = o.unitTot[:n*o.nu]
	o.unitLast = o.unitLast[:n*o.nu]
	if cap(o.demand) < o.nu {
		o.demand = make([]int64, o.nu)
		o.spanBuf = make([]int64, o.nu)
	}
	o.demand = o.demand[:o.nu]
	o.spanBuf = o.spanBuf[:o.nu]
}

// oracleEdgeLat is a provable lower bound on the issue distance the
// oracle enforces between dependent instructions i → j, derived from
// the same resolved register accesses placeResolved checks: a read of r
// at t_j+rc may not precede i's write availability t_i+wc (RAW), and a
// write's availability must land strictly after the previous write's
// availability (WAW) and after its last read (WAR). Unknown accesses
// (spilled Prepared, big=true) contribute 0 — weaker, still sound.
func oracleEdgeLat(pi, pj *pipe.Prepared) int32 {
	ri, wi := pi.Accesses()
	rj, wj := pj.Accesses()
	var lat int32
	for _, w := range wi {
		for _, r := range rj {
			if w.Reg == r.Reg {
				if l := int32(w.Cycle - r.Cycle); l > lat {
					lat = l
				}
			}
		}
		for _, w2 := range wj {
			if w.Reg == w2.Reg {
				if l := int32(w.Cycle - w2.Cycle + 1); l > lat {
					lat = l
				}
			}
		}
	}
	for _, r := range ri {
		for _, w2 := range wj {
			if r.Reg == w2.Reg {
				if l := int32(r.Cycle - w2.Cycle + 1); l > lat {
					lat = l
				}
			}
		}
	}
	return lat
}

// criticalPathsOut fills cpOut[i] with a lower bound on the cycles from
// i's issue to the end of the block: its own occupancy, or any
// successor chain's latency-weighted length. Dependence edges always
// point forward (i < j), so a single descending pass suffices.
func criticalPathsOut(n int, succStart, succTo, succLat []int32, cycles, cpOut []int64) {
	for i := n - 1; i >= 0; i-- {
		cp := cycles[i]
		for e := succStart[i]; e < succStart[i+1]; e++ {
			if c := int64(succLat[e]) + cpOut[succTo[e]]; c > cp {
				cp = c
			}
		}
		cpOut[i] = cp
	}
}

// resourceFloor bounds the end cycle from unit capacity. All remaining
// usage of unit u lands in [clock, lastIssue+spanU[u]) and each cycle
// provides counts[u] copies, so lastIssue >= clock + ceil(demand/count)
// - span; the last issuer then still occupies the pipeline for at least
// minCyc cycles. Sound because it only ignores constraints (existing
// ring occupancy, register hazards, cross-unit coupling), never invents
// them.
func resourceFloor(clock int64, demand []int64, counts []int32, spanU []int64, minCyc int64) int64 {
	var floor int64
	for u := range demand {
		if demand[u] <= 0 {
			continue
		}
		need := (demand[u] + int64(counts[u]) - 1) / int64(counts[u])
		if v := clock + need - spanU[u] + minCyc; v > floor {
			floor = v
		}
	}
	return floor
}

// lowerBound is the admissible bound on the cheapest completion
// reachable from the current DFS state: the partial cost so far, every
// unscheduled instruction's earliest issue plus its critical path out,
// and the resource floor.
func (o *optSearch) lowerBound(end int64) int64 {
	clock := o.fs.Clock()
	lb := end
	minCyc := int64(1) << 62
	clear(o.spanBuf)
	anyLeft := false
	for i := 0; i < o.n; i++ {
		if o.scheduled[i] {
			continue
		}
		anyLeft = true
		est := o.earliest[i]
		if clock > est {
			est = clock
		}
		if v := est + o.cpOut[i]; v > lb {
			lb = v
		}
		if o.cycles[i] < minCyc {
			minCyc = o.cycles[i]
		}
		row := i * o.nu
		for u := 0; u < o.nu; u++ {
			if s := int64(o.unitLast[row+u]); s > o.spanBuf[u] {
				o.spanBuf[u] = s
			}
		}
	}
	if !anyLeft {
		return lb
	}
	if v := resourceFloor(clock, o.demand, o.counts, o.spanBuf, minCyc); v > lb {
		lb = v
	}
	return lb
}

// dfs explores every dependence-respecting completion of the current
// prefix whose bound beats the incumbent. end is the partial sequence
// cost so far. The oracle state on entry reflects the prefix; dfs
// leaves it in an arbitrary state (each level restores from its own
// checkpoint before trying the next sibling, and callers do the same).
func (o *optSearch) dfs(depth int, end int64) error {
	if depth == o.n {
		cost := end
		if o.hasCTI {
			c, err := o.ctiLeafCost()
			if err != nil {
				return err
			}
			cost = c
		}
		if cost < o.incumbent {
			o.incumbent = cost
			o.improved = true
			copy(o.best, o.perm)
		}
		return nil
	}

	// Collect ready candidates, pruning dominated duplicates: identical
	// instruction values with identical successor edges are
	// interchangeable (the oracle treats equal instructions equally, and
	// equal edges mean equal effects on the rest of the block), so only
	// the lowest-index one is expanded.
	cand := o.cand[depth*o.n : depth*o.n : (depth+1)*o.n]
	for i := int32(0); i < int32(o.n); i++ {
		if o.scheduled[i] || o.npred[i] != 0 {
			continue
		}
		dominated := false
		for _, d := range cand {
			if o.body[d] == o.body[i] && o.sameSuccs(d, i) {
				dominated = true
				break
			}
		}
		if !dominated {
			cand = append(cand, i)
		}
	}

	// Order children greedily (fewest stalls, longest chain, lowest
	// index) so the first descent retraces the greedy schedule and the
	// incumbent tightens as early as possible. Probes are ordering hints
	// only; correctness never depends on them.
	keys := o.stallBuf[depth*o.n : depth*o.n+len(cand)]
	for k, c := range cand {
		st, err := o.fs.StallsPrepared(&o.prep[c], o.body[c])
		if err != nil {
			return err
		}
		keys[k] = int64(st)
	}
	for a := 1; a < len(cand); a++ {
		c, kc := cand[a], keys[a]
		b := a - 1
		for b >= 0 && o.childLess(kc, c, keys[b], cand[b]) {
			cand[b+1], keys[b+1] = cand[b], keys[b]
			b--
		}
		cand[b+1], keys[b+1] = c, kc
	}

	snap := &o.snaps[depth]
	o.fs.Save(snap)
	undoMark := len(o.undoNode)
	for _, c := range cand {
		if o.exhausted {
			return nil
		}
		o.nodes++
		if o.nodes > o.budget {
			o.exhausted = true
			return nil
		}
		_, issue, err := o.fs.IssuePrepared(&o.prep[c], o.body[c])
		if err != nil {
			return err
		}
		newEnd := end
		if e := issue + o.cycles[c]; e > newEnd {
			newEnd = e
		}
		o.scheduled[c] = true
		o.perm = append(o.perm, c)
		row := int(c) * o.nu
		for u := 0; u < o.nu; u++ {
			o.demand[u] -= int64(o.unitTot[row+u])
		}
		for e := o.succStart[c]; e < o.succStart[c+1]; e++ {
			j := o.succTo[e]
			o.npred[j]--
			if t := issue + int64(o.succLat[e]); t > o.earliest[j] {
				o.undoNode = append(o.undoNode, j)
				o.undoVal = append(o.undoVal, o.earliest[j])
				o.earliest[j] = t
			}
		}

		// Strict-improvement pruning (lb >= incumbent cuts) keeps the
		// first-found optimum, so ties resolve toward the greedy order
		// and the emitted schedule is deterministic.
		if o.lowerBound(newEnd) < o.incumbent {
			if err := o.dfs(depth+1, newEnd); err != nil {
				return err
			}
		}

		// Backtrack.
		for len(o.undoNode) > undoMark {
			last := len(o.undoNode) - 1
			o.earliest[o.undoNode[last]] = o.undoVal[last]
			o.undoNode = o.undoNode[:last]
			o.undoVal = o.undoVal[:last]
		}
		for e := o.succStart[c]; e < o.succStart[c+1]; e++ {
			o.npred[o.succTo[e]]++
		}
		for u := 0; u < o.nu; u++ {
			o.demand[u] += int64(o.unitTot[row+u])
		}
		o.perm = o.perm[:depth]
		o.scheduled[c] = false
		o.fs.Restore(snap)
	}
	return nil
}

// childLess orders candidate a (key ka) before b by the greedy
// priority: fewest stalls, then longest chain, then lowest original
// index. ChainFirst is deliberately ignored — child order affects only
// how fast the incumbent tightens, never which schedule is optimal.
func (o *optSearch) childLess(ka int64, a int32, kb int64, b int32) bool {
	if ka != kb {
		return ka < kb
	}
	if o.chain[a] != o.chain[b] {
		return o.chain[a] > o.chain[b]
	}
	return a < b
}

// sameSuccs reports whether nodes a and b have identical successor edge
// lists (targets and latencies). Edges are emitted in ascending target
// order, so positional equality is set equality.
func (o *optSearch) sameSuccs(a, b int32) bool {
	la, ra := o.succStart[a], o.succStart[a+1]
	lb, rb := o.succStart[b], o.succStart[b+1]
	if ra-la != rb-lb {
		return false
	}
	for k := int32(0); k < ra-la; k++ {
		if o.succTo[la+k] != o.succTo[lb+k] || o.succLat[la+k] != o.succLat[lb+k] {
			return false
		}
	}
	return true
}

// ctiLeafCost prices a complete body permutation as the block will
// actually be emitted: CTI reinserted second-to-last, delay slot
// refilled with the last scheduled instruction when legal, a nop
// otherwise — exactly scheduleBlockRaw's policy. The oracle state is
// consumed (Reset, then a full replay); the caller restores from its
// checkpoint.
func (o *optSearch) ctiLeafCost() (int64, error) {
	o.fs.Reset()
	var end int64
	n := o.n
	last := o.perm[n-1]
	refill := o.ctiLegal[last]
	bodyEnd := n
	if refill {
		bodyEnd = n - 1
	}
	issueSlot := func(slot int32, inst sparc.Inst, cyc int64) error {
		_, issue, err := o.fs.IssuePrepared(&o.prep[slot], inst)
		if err != nil {
			return err
		}
		if e := issue + cyc; e > end {
			end = e
		}
		return nil
	}
	for _, i := range o.perm[:bodyEnd] {
		if err := issueSlot(i, o.body[i], o.cycles[i]); err != nil {
			return 0, err
		}
	}
	if err := issueSlot(int32(n), o.cti, o.ctiCycles); err != nil {
		return 0, err
	}
	if refill {
		if err := issueSlot(last, o.body[last], o.cycles[last]); err != nil {
			return 0, err
		}
	} else {
		if err := issueSlot(int32(n+1), sparc.NewNop(), o.nopCycles); err != nil {
			return 0, err
		}
	}
	return end, nil
}
