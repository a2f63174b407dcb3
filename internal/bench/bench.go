// Package bench reproduces the paper's evaluation (§4.2): for each SPEC95
// stand-in it measures the uninstrumented, instrumented-unscheduled and
// instrumented-scheduled executables on the machine's hardware timing
// model, and renders Tables 1–3 (times, slowdown ratios, and the fraction
// of instrumentation overhead hidden by scheduling).
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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

// TableConfig selects one experiment.
type TableConfig struct {
	Machine spawn.Machine
	// RescheduleBaseline reproduces Table 2: EEL reschedules the original
	// program first, and instrumentation is applied to that binary.
	RescheduleBaseline bool
	// DynamicInsts approximately sizes each benchmark's run.
	DynamicInsts uint64
	Seed         int64
	// Sched tunes the scheduler (ablations); zero value is the paper's.
	Sched core.Options
	// DisablePlacementOpt instruments every block (ablation).
	DisablePlacementOpt bool
	// ValidateCounts cross-checks profile counters between the scheduled
	// and unscheduled instrumented runs.
	ValidateCounts bool
	// Benchmarks restricts the run to the named subset (nil = all 18).
	Benchmarks []string
	// Workers bounds the scheduling worker pool (see core.Options.Workers;
	// 0 = GOMAXPROCS). Scheduling output is byte-identical for any value,
	// so tables never depend on it — only wall-clock time does.
	Workers int
	// Engine selects the scheduling engine (see core.Options.Engine).
	// EngineOptimal may emit cheaper schedules than the default greedy
	// engine, so unlike Workers it can change a table.
	Engine core.Engine
	// TableWorkers bounds the benchmark-row worker pool in RunTable
	// (0 = GOMAXPROCS). Like Workers it never changes a table — rows are
	// independent experiments and land in suite order regardless — so it
	// is excluded from the archived JSON.
	TableWorkers int `json:"-"`
	// Obs, when non-nil, collects the run's telemetry: scheduler stall
	// attribution (propagated into Sched.Obs), simulator run totals,
	// per-row wall-time spans and the slowest_rows extra. Excluded from
	// JSON — telemetry never changes a table, and archived tables must
	// stay byte-identical with and without it.
	Obs *obs.Registry `json:"-"`
}

func (c TableConfig) withDefaults() TableConfig {
	if c.Machine == "" {
		c.Machine = spawn.UltraSPARC
	}
	if c.DynamicInsts == 0 {
		c.DynamicInsts = 600_000
	}
	if c.Workers != 0 && c.Sched.Workers == 0 {
		c.Sched.Workers = c.Workers
	}
	if c.Engine != core.EngineFast && c.Sched.Engine == core.EngineFast {
		c.Sched.Engine = c.Engine
	}
	if c.Obs != nil && c.Sched.Obs == nil {
		c.Sched.Obs = c.Obs
	}
	return c
}

// stampManifest records the experiment's identity in the registry's
// run-manifest block, layered over the environment facts.
func (c TableConfig) stampManifest() {
	r := c.Obs
	if r == nil {
		return
	}
	r.StampRunManifest()
	r.SetManifest("machine", string(c.Machine))
	r.SetManifest("engine", c.Sched.Engine.String())
	r.SetManifest("workers", strconv.Itoa(c.Sched.Workers))
	r.SetManifest("tableworkers", strconv.Itoa(c.TableWorkers))
	r.SetManifest("dynamic_insts", strconv.FormatUint(c.DynamicInsts, 10))
	r.SetManifest("reschedule_baseline", strconv.FormatBool(c.RescheduleBaseline))
}

// Row is one table line.
type Row struct {
	Name  string
	FP    bool
	AvgBB float64

	UninstCycles int64 // original binary (Tables 1/3) — always measured
	BaseCycles   int64 // baseline for the experiment (= Uninst, or rescheduled)
	InstCycles   int64
	SchedCycles  int64

	UninstSec, BaseSec, InstSec, SchedSec float64

	// RescheduleRatio = BaseCycles/UninstCycles (the paper's Table 2
	// Uninst column parenthetical).
	RescheduleRatio float64
	InstRatio       float64 // InstCycles / UninstCycles
	SchedRatio      float64 // SchedCycles / UninstCycles
	PctHidden       float64 // 100 * (Inst-Sched)/(Inst-Base)
}

// Table is a complete experiment result.
type Table struct {
	Config TableConfig
	Rows   []Row
}

// measure runs x under the measurer and returns (cycles, seconds) plus
// the finished interpreter, which the caller must pass back to
// meas.Release (the timing observer is recycled here).
func measure(meas *sim.Measurer, x *exe.Exe, maxSteps uint64) (int64, float64, *sim.Interp, error) {
	in, tm, res, err := meas.Run(x, maxSteps)
	if err != nil {
		return 0, 0, nil, err
	}
	if !res.Halted {
		meas.Release(in, tm)
		return 0, 0, nil, fmt.Errorf("bench: run did not halt")
	}
	cycles, sec := tm.Cycles(), tm.Seconds()
	meas.Release(nil, tm)
	return cycles, sec, in, nil
}

// RunBenchmark measures one benchmark under a configuration.
func RunBenchmark(b workload.Benchmark, cfg TableConfig) (Row, error) {
	cfg = cfg.withDefaults()
	model, err := spawn.Load(cfg.Machine)
	if err != nil {
		return Row{}, err
	}
	meas := sim.NewMeasurer(model, sim.DefaultTiming(cfg.Machine))
	meas.Obs = cfg.Obs
	return runBenchmark(b, cfg, model, meas)
}

// runBenchmark is RunBenchmark with the model and measurer supplied by the
// caller (RunTable's workers reuse both across rows). cfg must already
// have defaults applied.
//
// The measurement legs are independent experiments on immutable inputs —
// the generated original and the opened baseline editor — so they run
// concurrently: the editor never mutates its executable, edits go through
// the mutex-sharded scheduling cache, and each simulation owns its
// interpreter and timing state. Results are deterministic because each
// leg writes distinct fields and errors are checked in a fixed order
// after the join.
func runBenchmark(b workload.Benchmark, cfg TableConfig, model *spawn.Model, meas *sim.Measurer) (Row, error) {
	maxSteps := 40*cfg.DynamicInsts + 1_000_000

	orig, err := workload.Generate(b, workload.Config{
		Machine:      cfg.Machine,
		DynamicInsts: cfg.DynamicInsts,
		Seed:         cfg.Seed,
	})
	if err != nil {
		return Row{}, fmt.Errorf("bench: %s: %w", b.Name, err)
	}
	row := Row{Name: b.Name, FP: b.FP}

	// The baseline binary is the one input every instrumented leg shares,
	// so rescheduling (Table 2) stays on the serial spine.
	base := orig
	if cfg.RescheduleBaseline {
		ed, err := eel.Open(orig)
		if err != nil {
			return Row{}, err
		}
		base, err = ed.Reschedule(model, cfg.Sched)
		if err != nil {
			return Row{}, fmt.Errorf("bench: %s reschedule: %w", b.Name, err)
		}
	}
	ed, err := eel.Open(base)
	if err != nil {
		return Row{}, err
	}

	profInst := &qpt.SlowProfiler{DisablePlacementOpt: cfg.DisablePlacementOpt}
	profSched := &qpt.SlowProfiler{DisablePlacementOpt: cfg.DisablePlacementOpt}
	var instRun, schedRun *sim.Interp
	var errAvg, errUninst, errBase, errInst, errSched error

	var wg sync.WaitGroup
	leg := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f()
		}()
	}
	leg(func() {
		row.AvgBB, errAvg = workload.MeasureAvgBlockSize(orig, 300_000)
	})
	leg(func() {
		var in *sim.Interp
		var err error
		row.UninstCycles, row.UninstSec, in, err = measure(meas, orig, maxSteps)
		if err != nil {
			errUninst = fmt.Errorf("bench: %s uninstrumented: %w", b.Name, err)
			return
		}
		meas.Release(in, nil)
	})
	if cfg.RescheduleBaseline {
		leg(func() {
			var in *sim.Interp
			var err error
			row.BaseCycles, row.BaseSec, in, err = measure(meas, base, maxSteps)
			if err != nil {
				errBase = fmt.Errorf("bench: %s rescheduled: %w", b.Name, err)
				return
			}
			meas.Release(in, nil)
		})
	}
	leg(func() {
		// Instrumented, unscheduled.
		instExe, err := ed.Edit(profInst, eel.Options{})
		if err != nil {
			errInst = fmt.Errorf("bench: %s instrument: %w", b.Name, err)
			return
		}
		row.InstCycles, row.InstSec, instRun, err = measure(meas, instExe, maxSteps)
		if err != nil {
			errInst = fmt.Errorf("bench: %s instrumented: %w", b.Name, err)
		}
	})
	leg(func() {
		// Instrumented and scheduled together.
		schedExe, err := ed.Edit(profSched, eel.Options{
			Machine:  model,
			Schedule: true,
			Sched:    cfg.Sched,
		})
		if err != nil {
			errSched = fmt.Errorf("bench: %s schedule: %w", b.Name, err)
			return
		}
		row.SchedCycles, row.SchedSec, schedRun, err = measure(meas, schedExe, maxSteps)
		if err != nil {
			errSched = fmt.Errorf("bench: %s scheduled: %w", b.Name, err)
		}
	})
	wg.Wait()

	release := func() {
		meas.Release(instRun, nil)
		meas.Release(schedRun, nil)
	}
	for _, err := range []error{errAvg, errUninst, errBase, errInst, errSched} {
		if err != nil {
			release()
			return Row{}, err
		}
	}
	if !cfg.RescheduleBaseline {
		row.BaseCycles, row.BaseSec = row.UninstCycles, row.UninstSec
	}

	if cfg.ValidateCounts {
		a, err := profInst.Counts(instRun.Mem().Read32)
		if err != nil {
			release()
			return Row{}, err
		}
		bc, err := profSched.Counts(schedRun.Mem().Read32)
		if err != nil {
			release()
			return Row{}, err
		}
		for blk, av := range a {
			if bc[blk] != av {
				release()
				return Row{}, fmt.Errorf("bench: %s: block %d counts diverge: %d vs %d",
					b.Name, blk, av, bc[blk])
			}
		}
	}
	release()

	row.RescheduleRatio = ratio(row.BaseCycles, row.UninstCycles)
	row.InstRatio = ratio(row.InstCycles, row.UninstCycles)
	row.SchedRatio = ratio(row.SchedCycles, row.UninstCycles)
	overhead := row.InstCycles - row.BaseCycles
	if overhead != 0 {
		row.PctHidden = 100 * float64(row.InstCycles-row.SchedCycles) / float64(overhead)
	}
	return row, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// RunTable runs a full experiment over the suite. Benchmark rows are
// fanned out over cfg.TableWorkers goroutines (0 = GOMAXPROCS); rows are
// independent experiments, so the table is byte-identical for any worker
// count. Unknown names in cfg.Benchmarks are an error.
func RunTable(cfg TableConfig) (*Table, error) {
	cfg = cfg.withDefaults()
	suite := workload.Suite(cfg.Machine)
	list := suite
	if len(cfg.Benchmarks) > 0 {
		known := make(map[string]bool, len(suite))
		for _, b := range suite {
			known[b.Name] = true
		}
		var unknown []string
		for _, name := range cfg.Benchmarks {
			if !known[name] {
				unknown = append(unknown, name)
			}
		}
		if len(unknown) > 0 {
			return nil, fmt.Errorf("bench: unknown benchmarks: %s", strings.Join(unknown, ", "))
		}
		list = nil
		for _, b := range suite {
			if contains(cfg.Benchmarks, b.Name) {
				list = append(list, b)
			}
		}
	}
	t := &Table{Config: cfg}
	if len(list) == 0 {
		return t, nil
	}
	cfg.stampManifest()
	model, err := spawn.Load(cfg.Machine)
	if err != nil {
		return nil, err
	}
	tcfg := sim.DefaultTiming(cfg.Machine)

	workers := cfg.TableWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(list) {
		workers = len(list)
	}

	// Workers claim row indices from an atomic counter, so claims happen
	// in index order. The first error is deterministic: if row i is the
	// lowest-index failure, every lower row succeeds and no higher row can
	// set failed before i is claimed, so errs[i] is always populated and
	// the in-order scan below always returns it. failed only short-
	// circuits *new* claims after an error.
	rows := make([]Row, len(list))
	errs := make([]error, len(list))
	rowSecs := make([]float64, len(list)) // wall time per row, for slowest_rows
	rowHist := cfg.Obs.Histogram("bench.row_millis", obs.ExpBuckets(8, 16))
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Per-worker measurer: loaded model shared, interpreter and
			// timing state pooled across this worker's rows.
			meas := sim.NewMeasurer(model, tcfg)
			meas.Obs = cfg.Obs
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(list) {
					return
				}
				span := cfg.Obs.StartSpan("bench.row." + list[i].Name)
				start := time.Now()
				row, err := runBenchmark(list[i], cfg, model, meas)
				rowSecs[i] = time.Since(start).Seconds()
				span.End()
				rowHist.Observe(int64(rowSecs[i] * 1000))
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				rows[i] = row
			}
		}()
	}
	wg.Wait()
	recordSlowestRows(cfg.Obs, list, rowSecs)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	t.Rows = rows
	return t, nil
}

// SlowRow is one entry of the slowest_rows extra: a benchmark row and
// the wall time RunTable spent on it (all measurement legs included).
type SlowRow struct {
	Name   string  `json:"name"`
	Millis float64 `json:"millis"`
}

// recordSlowestRows attaches the top-5 wall-time rows to the registry,
// so a -metrics export answers "what made this run slow" directly.
func recordSlowestRows(reg *obs.Registry, list []workload.Benchmark, rowSecs []float64) {
	if reg == nil {
		return
	}
	slow := make([]SlowRow, 0, len(list))
	for i := range list {
		if rowSecs[i] > 0 {
			slow = append(slow, SlowRow{Name: list[i].Name, Millis: rowSecs[i] * 1000})
		}
	}
	sort.Slice(slow, func(a, b int) bool {
		if slow[a].Millis != slow[b].Millis {
			return slow[a].Millis > slow[b].Millis
		}
		return slow[a].Name < slow[b].Name
	})
	if len(slow) > 5 {
		slow = slow[:5]
	}
	reg.PutExtra("slowest_rows", slow)
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// Averages returns (mean inst ratio, mean sched ratio, mean % hidden) for
// a suite half (fp or integer), following the paper's arithmetic means.
func (t *Table) Averages(fp bool) (instRatio, schedRatio, pctHidden float64, n int) {
	for _, r := range t.Rows {
		if r.FP != fp {
			continue
		}
		instRatio += r.InstRatio
		schedRatio += r.SchedRatio
		pctHidden += r.PctHidden
		n++
	}
	if n > 0 {
		instRatio /= float64(n)
		schedRatio /= float64(n)
		pctHidden /= float64(n)
	}
	return instRatio, schedRatio, pctHidden, n
}

// WriteJSON renders the table as indented JSON — the machine-readable
// counterpart of String, for archiving experiment runs next to the
// BENCH_* perf trajectory.
func (t *Table) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// titleCase upper-cases the first letter of an ASCII word — the machine
// names are single lowercase words, so this matches what the deprecated
// strings.Title produced for them.
func titleCase(s string) string {
	if s == "" || !('a' <= s[0] && s[0] <= 'z') {
		return s
	}
	return string(s[0]-'a'+'A') + s[1:]
}

// String renders the table in the paper's format.
func (t *Table) String() string {
	var b strings.Builder
	title := "Slow profiling instrumentation on the " + titleCase(string(t.Config.Machine))
	if t.Config.RescheduleBaseline {
		title += ", with original instructions first rescheduled by EEL"
	}
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-14s %8s %10s %16s %16s %9s\n",
		"Benchmark", "Avg.BB", "Uninst.", "Inst.", "Sched.", "%Hidden")
	writeRows := func(fp bool, label string) {
		for _, r := range t.Rows {
			if r.FP != fp {
				continue
			}
			uninst := fmt.Sprintf("%.1f", r.UninstSec*1000)
			if t.Config.RescheduleBaseline {
				uninst = fmt.Sprintf("%.1f (%.2f)", r.BaseSec*1000, r.RescheduleRatio)
			}
			fmt.Fprintf(&b, "%-14s %8.1f %10s %9.1f (%.2f) %9.1f (%.2f) %8.1f%%\n",
				r.Name, r.AvgBB, uninst,
				r.InstSec*1000, r.InstRatio,
				r.SchedSec*1000, r.SchedRatio,
				r.PctHidden)
		}
		ir, sr, ph, n := t.Averages(fp)
		if n > 0 {
			fmt.Fprintf(&b, "%-14s %8s %10s %16.2f %16.2f %8.1f%%\n",
				label+" Average", "", "", ir, sr, ph)
		}
	}
	writeRows(false, "CINT95")
	writeRows(true, "CFP95")
	b.WriteString("(times in simulated milliseconds at the paper's clock rates)\n")
	return b.String()
}
