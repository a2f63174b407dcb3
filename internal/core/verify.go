package core

import (
	"fmt"

	"eel/internal/sparc"
)

// VerifyDependences checks that sched is a legal reordering of orig under
// the scheduler's dependence rules (the same register, memory and trap
// rules the dependence-graph builders encode, with this scheduler's
// aliasing options). It is
// the invariant layer behind the property tests: any schedule the paper's
// algorithm may emit must
//
//   - preserve the multiset of non-nop instructions (nops may be added or
//     dropped only by delay-slot refilling, so the length can change by at
//     most one),
//   - keep the block's CTI, if any, in the second-to-last slot, and
//   - issue every dependent pair in its original order.
//
// Blocks are compared in execution order: a block ending in a CTI plus
// delay slot is normalized so the delay-slot instruction (which executes
// last) follows the body, mirroring how the scheduler treats it.
func (s *Scheduler) VerifyDependences(orig, sched []sparc.Inst) error {
	origBody, origCTI, err := normalizeBlock(orig)
	if err != nil {
		return fmt.Errorf("core: verify: original block: %w", err)
	}
	schedBody, schedCTI, err := normalizeBlock(sched)
	if err != nil {
		return fmt.Errorf("core: verify: scheduled block: %w", err)
	}
	if (origCTI == nil) != (schedCTI == nil) {
		return fmt.Errorf("core: verify: CTI presence changed")
	}
	if origCTI != nil && *origCTI != *schedCTI {
		return fmt.Errorf("core: verify: CTI changed: %v -> %v", *origCTI, *schedCTI)
	}
	if d := len(orig) - len(sched); d > 1 || d < -1 {
		return fmt.Errorf("core: verify: length changed by %d (%d -> %d)", -d, len(orig), len(sched))
	}

	// Map each non-nop original instruction to its position in the
	// schedule. Identical duplicates are interchangeable, so the k-th
	// occurrence maps to the k-th occurrence.
	pos := make(map[sparc.Inst][]int)
	for i, inst := range schedBody {
		if inst.IsNop() {
			continue
		}
		pos[inst] = append(pos[inst], i)
	}
	mapped := make([]int, 0, len(origBody))
	kept := make([]sparc.Inst, 0, len(origBody))
	for _, inst := range origBody {
		if inst.IsNop() {
			continue
		}
		ps := pos[inst]
		if len(ps) == 0 {
			return fmt.Errorf("core: verify: instruction lost: %v", inst)
		}
		mapped = append(mapped, ps[0])
		pos[inst] = ps[1:]
		kept = append(kept, inst)
	}
	for inst, ps := range pos {
		if len(ps) > 0 {
			return fmt.Errorf("core: verify: instruction appeared: %v", inst)
		}
	}

	// Every dependent pair must keep its original order.
	var usesI, defsI, usesJ, defsJ []sparc.Reg
	for i := 0; i < len(kept); i++ {
		usesI = kept[i].Uses(usesI[:0])
		defsI = kept[i].Defs(defsI[:0])
		for j := i + 1; j < len(kept); j++ {
			usesJ = kept[j].Uses(usesJ[:0])
			defsJ = kept[j].Defs(defsJ[:0])
			dep := false
			switch {
			case kept[i].Op == sparc.OpTicc || kept[j].Op == sparc.OpTicc:
				dep = true
			case s.memConflict(kept[i], kept[j]):
				dep = true
			default:
				_, raw := intersects(defsI, usesJ)
				_, war := intersects(usesI, defsJ)
				_, waw := intersects(defsI, defsJ)
				dep = raw || war || waw
			}
			if dep && mapped[i] > mapped[j] {
				return fmt.Errorf("core: verify: dependence inverted: %v (orig %d, sched %d) vs %v (orig %d, sched %d)",
					kept[i], i, mapped[i], kept[j], j, mapped[j])
			}
		}
	}
	return nil
}

// normalizeBlock splits a block into execution-order straight-line code
// and its CTI: [body..., cti, delay] becomes body+[delay] (the delay slot
// executes after the CTI issues, i.e. last). Nop delay slots are dropped.
func normalizeBlock(block []sparc.Inst) ([]sparc.Inst, *sparc.Inst, error) {
	n := len(block)
	if n >= 2 && block[n-2].IsCTI() {
		cti := block[n-2]
		body := append([]sparc.Inst(nil), block[:n-2]...)
		if !block[n-1].IsNop() {
			body = append(body, block[n-1])
		}
		return body, &cti, nil
	}
	for i, inst := range block {
		if inst.IsCTI() {
			return nil, nil, fmt.Errorf("CTI at %d is not in terminal position", i)
		}
	}
	return block, nil, nil
}
