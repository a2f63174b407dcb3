package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"eel/internal/core"
	"eel/internal/eel"
	"eel/internal/exe"
	"eel/internal/obs"
	"eel/internal/qpt"
	"eel/internal/sim"
	"eel/internal/spawn"
	"eel/internal/workload"
)

// tableRowInsts sizes each generated benchmark run. It is small enough
// that a pass over all 54 rows takes a few seconds, so a run holds a few
// hundred ops, and large enough that the simulator dominates an op, as it
// does in the paper's experiment.
const tableRowInsts = 100_000

// tableRow is one row of the paper's Tables 1 and 3 per op, with no
// daemon: open, instrument, instrument and schedule, then simulate the
// original, instrumented and scheduled images. The inputs are fixed
// (cmd/tables' generation seed 0) so the schedule-quality metrics repeat
// exactly; the run seed only orders the rows. Every run does whole
// passes over the 54 rows, so every run does the same mix of work.
type tableRow struct {
	seed  int64
	rows  []*rowInput
	meas  map[spawn.Machine]*sim.Measurer
	first []rowCycles // cycles of the first pass, by rowInput.idx
	// simulator work inside traced ops, for the per-layer metrics
	simNs, simInsts, openNs, openInsts int64
	passInsts                          int64
}

type rowInput struct {
	idx     int // position in suite order, which sums are taken in
	bench   workload.Benchmark
	machine spawn.Machine
	model   *spawn.Model
	x       *exe.Exe
}

type rowCycles struct{ uninst, inst, sched int64 }

func newTableRow(seed int64) driver {
	return &tableRow{seed: seed, meas: make(map[spawn.Machine]*sim.Measurer)}
}

func (t *tableRow) setup(_ bool, l *setupLayers) (time.Duration, error) {
	for _, m := range spawn.Machines() {
		var model *spawn.Model
		err := l.time(&l.spawnLoad, func() (err error) {
			model, err = spawn.Load(m)
			return err
		})
		if err != nil {
			return 0, err
		}
		t.meas[m] = sim.NewMeasurer(model, sim.DefaultTiming(m))
		for _, b := range workload.Suite(m) {
			var x *exe.Exe
			err := l.time(&l.generate, func() (err error) {
				x, err = workload.Generate(b, workload.Config{Machine: m, DynamicInsts: tableRowInsts})
				return err
			})
			if err != nil {
				return 0, fmt.Errorf("generate %s/%s: %w", m, b.Name, err)
			}
			t.rows = append(t.rows, &rowInput{idx: len(t.rows), bench: b, machine: m, model: model, x: x})
		}
	}
	rand.New(rand.NewSource(t.seed)).Shuffle(len(t.rows), func(i, j int) {
		t.rows[i], t.rows[j] = t.rows[j], t.rows[i]
	})
	return 0, nil
}

// segment runs one whole pass over the rows, in the seeded order.
func (t *tableRow) segment(traced bool, _ time.Duration) (*runStats, error) {
	st := &runStats{}
	pass := make([]rowCycles, len(t.rows))
	var passInsts int64
	for _, r := range t.rows {
		var tr *obs.Trace
		if traced {
			tr = obs.NewTrace("op")
		}
		var out rowOutput
		var err error
		if st.timeOp(func() bool {
			out, err = t.op(r, tr)
			tr.Finish()
			return err == nil
		}) {
			if err = out.check(); err != nil {
				st.failed++
			}
		}
		out.release(t.meas[r.machine])
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: op failed: %s/%s: %v\n", r.machine, r.bench.Name, err)
			continue
		}
		pass[r.idx] = out.cycles
		passInsts += out.insts
		if tr != nil {
			st.traces = append(st.traces, tr.Export())
			t.simNs += out.simNs
			t.simInsts += out.insts
			t.openNs += out.openNs
			t.openInsts += int64(len(r.x.Text))
		}
	}
	// The simulator is deterministic: every pass must reproduce the
	// first pass's cycle counts row for row.
	if t.first == nil {
		t.first, t.passInsts = pass, passInsts
	} else {
		for _, r := range t.rows {
			if c := pass[r.idx]; c != t.first[r.idx] && c != (rowCycles{}) {
				st.failed++
				fmt.Fprintf(os.Stderr, "perfbench: op failed: %s/%s: cycles %v differ from first pass %v\n",
					r.machine, r.bench.Name, c, t.first[r.idx])
			}
		}
	}
	return st, nil
}

// rowOutput is what one op produced, kept until its checks are done.
type rowOutput struct {
	instProf, schedProf *qpt.SlowProfiler
	instRun, schedRun   *sim.Interp
	cycles              rowCycles
	insts               int64 // simulated instructions, all three runs
	simNs, openNs       int64
}

// op is the timed work of one row. Output checks happen in check.
func (t *tableRow) op(r *rowInput, tr *obs.Trace) (out rowOutput, err error) {
	meas := t.meas[r.machine]
	maxSteps := uint64(40*tableRowInsts + 1_000_000)

	sp := tr.StartSpan("eel.open")
	t0 := time.Now()
	ed, err := eel.Open(r.x)
	out.openNs = time.Since(t0).Nanoseconds()
	sp.End()
	if err != nil {
		return out, err
	}
	defer ed.Close()

	out.instProf = &qpt.SlowProfiler{}
	sp = tr.StartSpan("eel.edit")
	instExe, err := ed.EditCtx(obs.WithTraceParent(context.Background(), tr, sp.Idx()), out.instProf, eel.Options{})
	sp.End()
	if err != nil {
		return out, fmt.Errorf("instrument: %w", err)
	}
	out.schedProf = &qpt.SlowProfiler{}
	sp = tr.StartSpan("eel.edit")
	schedExe, err := ed.EditCtx(obs.WithTraceParent(context.Background(), tr, sp.Idx()), out.schedProf, eel.Options{
		Machine:  r.model,
		Schedule: true,
		Sched:    core.Options{Workers: 1},
	})
	sp.End()
	if err != nil {
		return out, fmt.Errorf("schedule: %w", err)
	}

	runOne := func(x *exe.Exe, keep **sim.Interp) (int64, error) {
		sp := tr.StartSpan("sim.run")
		t0 := time.Now()
		in, tm, res, err := meas.Run(x, maxSteps)
		out.simNs += time.Since(t0).Nanoseconds()
		sp.End()
		if err != nil {
			return 0, err
		}
		defer meas.Release(nil, tm)
		if !res.Halted {
			meas.Release(in, nil)
			return 0, fmt.Errorf("did not halt in %d steps", maxSteps)
		}
		out.insts += int64(tm.Instructions())
		if keep != nil {
			*keep = in
		} else {
			meas.Release(in, nil)
		}
		return tm.Cycles(), nil
	}
	if out.cycles.uninst, err = runOne(r.x, nil); err != nil {
		return out, fmt.Errorf("uninstrumented run: %w", err)
	}
	if out.cycles.inst, err = runOne(instExe, &out.instRun); err != nil {
		return out, fmt.Errorf("instrumented run: %w", err)
	}
	if out.cycles.sched, err = runOne(schedExe, &out.schedRun); err != nil {
		return out, fmt.Errorf("scheduled run: %w", err)
	}
	return out, nil
}

// check applies bench.TableConfig.ValidateCounts' rule: the profile
// counters of the instrumented and the scheduled runs agree block for
// block.
func (o *rowOutput) check() error {
	a, err := o.instProf.Counts(o.instRun.Mem().Read32)
	if err != nil {
		return err
	}
	b, err := o.schedProf.Counts(o.schedRun.Mem().Read32)
	if err != nil {
		return err
	}
	if len(a) != len(b) {
		return fmt.Errorf("%d vs %d counted blocks", len(a), len(b))
	}
	for blk, n := range a {
		if b[blk] != n {
			return fmt.Errorf("block %d counts diverge: %d vs %d", blk, n, b[blk])
		}
	}
	return nil
}

func (o *rowOutput) release(meas *sim.Measurer) {
	meas.Release(o.instRun, nil)
	meas.Release(o.schedRun, nil)
	o.instRun, o.schedRun = nil, nil
}

func (t *tableRow) check(*runStats) error { return nil }

// quality is the paper's Table 1/3 summary over one pass: the mean share
// of instrumentation overhead hidden by scheduling, and the geometric
// mean of scheduled-instrumented over uninstrumented cycles.
func (t *tableRow) quality() (float64, float64) {
	var hidden, logRatio float64
	n := 0
	for _, c := range t.first {
		if c.uninst == 0 || c.inst == c.uninst {
			continue
		}
		hidden += 100 * float64(c.inst-c.sched) / float64(c.inst-c.uninst)
		logRatio += math.Log(float64(c.sched) / float64(c.uninst))
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return hidden / float64(n), math.Exp(logRatio / float64(n))
}

func (t *tableRow) layers(l *layerAcc) {
	l.simNs, l.simInsts, l.passInsts = t.simNs, t.simInsts, t.passInsts
	l.openNs, l.openInsts = t.openNs, t.openInsts
	l.schedCalls = l.ops // one scheduling call (the second edit) per row
}

func (t *tableRow) close() error { return nil }
