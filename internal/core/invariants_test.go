// Scheduler invariant property tests. This lives in an external test
// package because the workload generator transitively imports core.
package core_test

import (
	"fmt"
	"testing"

	"eel/internal/core"
	"eel/internal/eel"
	"eel/internal/pipe"
	"eel/internal/sparc"
	"eel/internal/spawn"
	"eel/internal/workload"
)

// suiteBlocks generates every benchmark in a machine's suite (small,
// uncalibrated runs) and returns each program's basic blocks, labelled.
func suiteBlocks(t *testing.T, machine spawn.Machine) map[string][][]sparc.Inst {
	t.Helper()
	out := make(map[string][][]sparc.Inst)
	for _, b := range workload.Suite(machine) {
		x, err := workload.Generate(b, workload.Config{
			Machine:         machine,
			DynamicInsts:    20_000,
			SkipCalibration: true,
		})
		if err != nil {
			t.Fatalf("%s/%s: generate: %v", machine, b.Name, err)
		}
		ed, err := eel.Open(x)
		if err != nil {
			t.Fatalf("%s/%s: open: %v", machine, b.Name, err)
		}
		blocks := make([][]sparc.Inst, len(ed.Graph().Blocks))
		for i, blk := range ed.Graph().Blocks {
			blocks[i] = append([]sparc.Inst(nil), blk.Insts...)
		}
		out[b.Name] = blocks
	}
	return out
}

// TestScheduleInvariants schedules every basic block of every workload
// benchmark on every shipped machine and asserts, per block:
//
//   - permutation: the schedule keeps the non-nop instruction multiset and
//     changes the length by at most one (delay-slot refilling);
//   - dependences: RAW/WAR/WAW, memory-conflict and trap-barrier order is
//     preserved (Scheduler.VerifyDependences);
//   - cost: the scheduled block never costs more modeled cycles than the
//     original;
//   - oracle equivalence: the compiled tables and the pipe.State
//     interpreter produce byte-identical schedules;
//   - engine equivalence: the fast arena/priority-queue engine matches
//     the reference pairwise-builder/rescan engine, under both oracles.
func TestScheduleInvariants(t *testing.T) {
	for _, machine := range spawn.Machines() {
		machine := machine
		t.Run(string(machine), func(t *testing.T) {
			model := spawn.MustLoad(machine)
			fast := core.New(model, core.Options{})
			variants := []struct {
				name string
				s    *core.Scheduler
			}{
				{"engine=reference/oracle=fast", core.UseReferenceEngine(core.New(model, core.Options{}))},
				{"engine=fast/oracle=reference", core.NewStateScheduler(model, core.Options{})},
				{"engine=reference/oracle=reference", core.UseReferenceEngine(core.NewStateScheduler(model, core.Options{}))},
			}
			nblocks := 0
			for name, blocks := range suiteBlocks(t, machine) {
				for i, block := range blocks {
					label := fmt.Sprintf("%s block %d", name, i)
					sched, err := fast.ScheduleBlock(block)
					if err != nil {
						t.Fatalf("%s: schedule: %v", label, err)
					}
					for _, v := range variants {
						vsched, err := v.s.ScheduleBlock(block)
						if err != nil {
							t.Fatalf("%s: %s schedule: %v", label, v.name, err)
						}
						if !instsEqual(sched, vsched) {
							t.Fatalf("%s: %s schedule differs from default:\ndefault: %v\nvariant: %v", label, v.name, sched, vsched)
						}
					}
					if err := fast.VerifyDependences(block, sched); err != nil {
						t.Fatalf("%s: %v\norig:  %v\nsched: %v", label, err, block, sched)
					}
					before, err := pipe.SequenceCycles(model, block)
					if err != nil {
						t.Fatalf("%s: cost of original: %v", label, err)
					}
					after, err := pipe.SequenceCycles(model, sched)
					if err != nil {
						t.Fatalf("%s: cost of schedule: %v", label, err)
					}
					if after > before {
						t.Fatalf("%s: schedule costs more: %d -> %d cycles\norig:  %v\nsched: %v",
							label, before, after, block, sched)
					}
					nblocks++
				}
			}
			if nblocks == 0 {
				t.Fatal("no blocks scheduled")
			}
			t.Logf("%s: verified %d blocks", machine, nblocks)
		})
	}
}

// TestVerifyDependencesRejects makes sure the verifier actually rejects
// broken schedules — an invariant checker that passes everything would
// make TestScheduleInvariants vacuous.
func TestVerifyDependencesRejects(t *testing.T) {
	model := spawn.MustLoad(spawn.UltraSPARC)
	s := core.New(model, core.Options{})
	ld := sparc.NewLoad(sparc.OpLd, sparc.G1, sparc.O0, 0)
	use := sparc.NewALU(sparc.OpAdd, sparc.G2, sparc.G1, sparc.G1)
	st := sparc.NewStore(sparc.OpSt, sparc.G3, sparc.O1, 0)
	other := sparc.NewSethi(sparc.G4, 100)

	cases := []struct {
		name        string
		orig, sched []sparc.Inst
	}{
		{"raw inverted", []sparc.Inst{ld, use, other}, []sparc.Inst{use, ld, other}},
		{"lost instruction", []sparc.Inst{ld, use, other}, []sparc.Inst{ld, use}},
		{"invented instruction", []sparc.Inst{ld, use}, []sparc.Inst{ld, use, st}},
		{"store reordered past load", []sparc.Inst{ld, st, other}, []sparc.Inst{st, ld, other}},
	}
	for _, c := range cases {
		if err := s.VerifyDependences(c.orig, c.sched); err == nil {
			t.Errorf("%s: verifier accepted a broken schedule", c.name)
		}
	}
	// And a legal reorder must pass: other is independent of the chain.
	if err := s.VerifyDependences([]sparc.Inst{ld, use, other}, []sparc.Inst{ld, other, use}); err != nil {
		t.Errorf("legal reorder rejected: %v", err)
	}
}

func instsEqual(a, b []sparc.Inst) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
