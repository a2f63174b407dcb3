// Property tests of the stall oracles the scheduler runs over. This is
// an external test package because it draws random blocks from the
// workload generator, which imports sim.
package sim_test

import (
	"fmt"
	"math/rand"
	"testing"

	"eel/internal/core"
	"eel/internal/pipe"
	"eel/internal/sim"
	"eel/internal/sparc"
	"eel/internal/spawn"
	"eel/internal/workload"
)

// randomSequence is a random straight-line block of 2–33 instructions,
// half of them FP-heavy, with a branch and its delay slot appended to
// every third one so the grouping rules' fetch redirects are exercised.
func randomSequence(rng *rand.Rand, i int) []sparc.Inst {
	block := workload.RandomBlock(rng, 2+rng.Intn(32), i%2 == 1)
	if i%3 == 0 {
		block = append(block, sparc.NewBranch(sparc.CondNE, -int32(len(block))-1), sparc.NewNop())
	}
	return block
}

// TestPipelineMonotone checks the core.Pipeline monotone contract, which
// the fast scheduling engine relies on for every oracle: for each
// not-yet-issued instruction c, clock + Stalls(c) never decreases across
// an Issue, where clock is the last issue cycle. Each block is issued in
// a random order — stronger than the dependence-respecting orders the
// scheduler produces — and every pending instruction is re-probed after
// every Issue.
func TestPipelineMonotone(t *testing.T) {
	oracles := []struct {
		name string
		mk   func(*spawn.Model) core.Pipeline
	}{
		{"FastState", func(m *spawn.Model) core.Pipeline { return pipe.NewFastState(m) }},
		{"State", func(m *spawn.Model) core.Pipeline { return pipe.NewState(m) }},
		{"HWPipeline", func(m *spawn.Model) core.Pipeline { return sim.NewHWPipeline(m, sim.MachineRules(m.Machine)) }},
	}
	for _, machine := range spawn.Machines() {
		model := spawn.MustLoad(machine)
		for _, o := range oracles {
			t.Run(fmt.Sprintf("%s/%s", machine, o.name), func(t *testing.T) {
				rng := rand.New(rand.NewSource(1))
				p := o.mk(model)
				probes := 0
				for b := 0; b < 400; b++ {
					block := randomSequence(rng, b)
					pending := rng.Perm(len(block))
					bound := make([]int64, len(block))
					p.Reset()
					var clock int64
					probe := func(check bool) {
						for _, c := range pending {
							st, err := p.Stalls(block[c])
							if err != nil {
								t.Fatalf("Stalls(%v): %v", block[c], err)
							}
							now := clock + int64(st)
							if check && now < bound[c] {
								t.Fatalf("block %d: %v could issue at cycle %d, earlier than the %d probed before the last Issue\nblock: %v",
									b, block[c], now, bound[c], block)
							}
							bound[c] = now
							probes++
						}
					}
					probe(false)
					for len(pending) > 0 {
						next := pending[0]
						pending = pending[1:]
						_, issue, err := p.Issue(block[next])
						if err != nil {
							t.Fatalf("Issue(%v): %v", block[next], err)
						}
						if issue < clock {
							t.Fatalf("block %d: %v issued at cycle %d, before the clock %d", b, block[next], issue, clock)
						}
						clock = issue
						probe(true)
					}
				}
				if probes == 0 {
					t.Fatal("no probes checked")
				}
			})
		}
	}
}

// TestHWPipelineResetMatchesFresh: a pipeline Reset after scheduling
// other blocks issues every instruction exactly like a freshly built
// one, so Reset clears everything placement reads and a long-lived
// HWPipeline (the workload generator's pricing loop) can stand in for a
// fresh one per block.
func TestHWPipelineResetMatchesFresh(t *testing.T) {
	for _, machine := range spawn.Machines() {
		model := spawn.MustLoad(machine)
		rules := sim.MachineRules(machine)
		reused := sim.NewHWPipeline(model, rules)
		rng := rand.New(rand.NewSource(2))
		for b := 0; b < 300; b++ {
			block := randomSequence(rng, b)
			reused.Reset()
			fresh := sim.NewHWPipeline(model, rules)
			for _, inst := range block {
				fs, fi, ferr := fresh.Issue(inst)
				rs, ri, rerr := reused.Issue(inst)
				if fs != rs || fi != ri || (ferr == nil) != (rerr == nil) {
					t.Fatalf("%s block %d: %v issues as (%d stalls, cycle %d, %v) after Reset, (%d, %d, %v) fresh\nblock: %v",
						machine, b, inst, rs, ri, rerr, fs, fi, ferr, block)
				}
			}
		}
	}
}
