// Command eelprof instruments an executable with QPT2 slow profiling, in
// the manner of the paper's Figure 3:
//
//	eelprof -machine ultrasparc -o prog.prof prog.exe      # instrument + schedule
//	eelprof -noschedule -o prog.prof prog.exe              # instrument only
//	eelprof -reschedule -o prog.sched prog.exe             # reschedule only
//	eelprof -run prog.exe                                  # run and report
//	eelprof -workers 8 -o prog.prof prog.exe               # 8 scheduling workers
//	eelprof -cachestats -o prog.prof prog.exe              # schedule-cache report
//	eelprof -engine optimal -reschedule -o p.opt prog.exe  # exact B&B schedules
//	eelprof -metrics run.json -o prog.prof prog.exe        # telemetry export
//	eelprof -trace traces/ -o prog.prof prog.exe           # decision traces
//	eelprof -pprof :6060 -o prog.prof prog.exe             # live profiling
//	eelprof -gen 130.li -reschedule -o p.sched             # synthetic input
//
// -gen replaces the executable argument with a deterministic synthetic
// workload image (the same generator eelload's edit mode uses), so CI
// jobs can byte-diff schedules — e.g. across worker counts — without a
// binary corpus checked into the repo.
//
// With -run the tool executes the (possibly instrumented) program on the
// functional simulator with the machine's hardware timing model and prints
// cycles, instructions and, for instrumented binaries produced in the same
// invocation, the hottest basic blocks.
//
// -metrics writes the run's telemetry registry (stall attribution by
// hazard, phase spans, cache statistics) as JSON, or Prometheus text when
// the path ends in .prom. -trace writes one JSON line per scheduled
// block into <dir>/sched.jsonl for cmd/schedtrace. -pprof serves
// net/http/pprof on the given address for the life of the process.
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"eel/internal/core"
	"eel/internal/eel"
	"eel/internal/exe"
	"eel/internal/obs"
	"eel/internal/qpt"
	"eel/internal/sim"
	"eel/internal/spawn"
	"eel/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "eelprof:", err)
		os.Exit(1)
	}
}

// run isolates every error path so main can turn each one into a
// non-zero exit code (CI depends on that).
func run() error {
	var (
		machine    = flag.String("machine", "ultrasparc", "scheduling/timing model")
		out        = flag.String("o", "", "output executable path")
		noSchedule = flag.Bool("noschedule", false, "insert instrumentation without scheduling")
		reschedule = flag.Bool("reschedule", false, "reschedule only; no instrumentation")
		doRun      = flag.Bool("run", false, "execute the result and report")
		maxSteps   = flag.Uint64("maxsteps", 1<<30, "execution step limit with -run")
		workers    = flag.Int("workers", 0, "scheduling worker pool size (0 = GOMAXPROCS)")
		engineName = flag.String("engine", "fast", "scheduling engine: fast (greedy list scheduling) or optimal (branch-and-bound exact)")
		cacheStats = flag.Bool("cachestats", false, "report schedule-cache statistics after editing")
		metricsOut = flag.String("metrics", "", "write telemetry to this file (JSON, or Prometheus text for .prom)")
		traceDir   = flag.String("trace", "", "write per-block scheduling decision traces into this directory")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060)")
		gen        = flag.String("gen", "", "synthesize the input from this workload (e.g. 130.li) instead of reading an executable")
		genInsts   = flag.Uint64("gen-dyninsts", 1<<13, "with -gen: dynamic instructions in the generated image")
		genSeed    = flag.Int64("gen-seed", 1, "with -gen: workload generator seed")
	)
	flag.Parse()
	if (*gen == "" && flag.NArg() != 1) || (*gen != "" && flag.NArg() != 0) {
		fmt.Fprintln(os.Stderr, "usage: eelprof [flags] executable\n       eelprof -gen workload [flags]")
		os.Exit(2)
	}
	engine, err := checkFlags(*engineName, *genInsts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "eelprof:", err)
		os.Exit(2)
	}
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "eelprof: pprof:", err)
			}
		}()
	}

	var reg *obs.Registry
	if *metricsOut != "" {
		reg = obs.NewRegistry()
		reg.StampRunManifest()
		reg.SetManifest("tool", "eelprof")
		reg.SetManifest("machine", *machine)
		reg.SetManifest("engine", engine.String())
		reg.SetManifest("workers", strconv.Itoa(*workers))
	}
	// The optimal engine withholds unproven schedules from the cache;
	// -cachestats reports those bypasses, which needs a registry even
	// when -metrics is off.
	if *cacheStats && engine == core.EngineOptimal && reg == nil {
		reg = obs.NewRegistry()
	}
	var trace core.TraceSink
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			return err
		}
		j, err := obs.CreateJSONL(filepath.Join(*traceDir, "sched.jsonl"))
		if err != nil {
			return err
		}
		defer j.Close()
		trace = core.NewJSONLTraceSink(j)
	}
	model, err := spawn.Load(spawn.Machine(*machine))
	if err != nil {
		return err
	}
	var x *exe.Exe
	if *gen != "" {
		b, ok := workload.ByName(*gen, spawn.Machine(*machine))
		if !ok {
			return fmt.Errorf("unknown -gen workload %q", *gen)
		}
		x, err = workload.Generate(b, workload.Config{
			Machine:         spawn.Machine(*machine),
			DynamicInsts:    *genInsts,
			Seed:            *genSeed,
			SkipCalibration: true,
		})
	} else {
		x, err = exe.ReadFile(flag.Arg(0))
	}
	if err != nil {
		return err
	}
	ed, err := eel.Open(x)
	if err != nil {
		return err
	}

	var prof *qpt.SlowProfiler
	result := x
	switch {
	case *reschedule:
		result, err = ed.Reschedule(model, core.Options{
			Workers: *workers, Engine: engine, Obs: reg, Trace: trace})
	default:
		prof = &qpt.SlowProfiler{}
		opts := eel.Options{}
		if !*noSchedule {
			opts.Machine = model
			opts.Schedule = true
			opts.Sched.Workers = *workers
			opts.Sched.Engine = engine
			opts.Sched.Obs = reg
			opts.Sched.Trace = trace
		}
		result, err = ed.Edit(prof, opts)
	}
	if err != nil {
		// A failed edit still leaves observable state behind: the blocks
		// scheduled before the failure sit in the cache and the registry.
		// Report both, marked incomplete, and keep the error — and the
		// non-zero exit — intact.
		if *cacheStats {
			reportCacheStats(ed.Cache(), true)
			reportOptimalCacheStats(engine, reg, true)
		}
		if reg != nil && *metricsOut != "" {
			reg.SetManifest("incomplete", "true")
			if werr := reg.WriteFile(*metricsOut); werr != nil {
				fmt.Fprintln(os.Stderr, "eelprof: metrics:", werr)
			}
		}
		return err
	}

	if *cacheStats {
		reportCacheStats(ed.Cache(), false)
		reportOptimalCacheStats(engine, reg, false)
	}
	if reg != nil && *metricsOut != "" {
		if err := reg.WriteFile(*metricsOut); err != nil {
			return err
		}
	}

	if *out != "" {
		if err := result.WriteFile(*out); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "eelprof: wrote %s (%d -> %d instructions)\n",
			*out, len(x.Text), len(result.Text))
	}

	if !*doRun {
		return nil
	}
	in, tm, res, err := sim.RunMeasured(result, model, sim.DefaultTiming(spawn.Machine(*machine)), *maxSteps)
	if err != nil {
		return err
	}
	fmt.Printf("halted=%v instructions=%d cycles=%d seconds=%.6f icache-miss=%.4f\n",
		res.Halted, tm.Instructions(), tm.Cycles(), tm.Seconds(), tm.ICache().MissRate())
	if prof != nil {
		counts, err := prof.Counts(in.Mem().Read32)
		if err != nil {
			return err
		}
		type bc struct {
			block int
			n     uint64
		}
		var hot []bc
		for b, n := range counts {
			hot = append(hot, bc{b, n})
		}
		sort.Slice(hot, func(i, j int) bool { return hot[i].n > hot[j].n })
		fmt.Println("hottest blocks:")
		for i, h := range hot {
			if i == 10 {
				break
			}
			fmt.Printf("  block %4d: %12d executions\n", h.block, h.n)
		}
	}
	if !res.Halted {
		return fmt.Errorf("run did not halt within %d steps", *maxSteps)
	}
	return nil
}

// checkFlags resolves -engine and rejects the flag values run would
// otherwise silently reinterpret: -gen-dyninsts 0 would become the
// generator's 1<<20 default.
func checkFlags(engineName string, genInsts uint64) (core.Engine, error) {
	engine, err := core.ParseEngine(engineName)
	if err != nil {
		return 0, fmt.Errorf("-engine: %w", err)
	}
	if genInsts == 0 {
		return 0, fmt.Errorf("-gen-dyninsts 0: must be at least 1")
	}
	return engine, nil
}

// reportCacheStats prints the schedule cache's effectiveness: aggregate
// hit rate, occupancy against capacity, and how evenly the key space
// spread over the lock shards (max/mean shard occupancy). incomplete
// marks a report cut short by a failed edit: the numbers are the state
// at the failure, not a full run's.
func reportCacheStats(c *core.Cache, incomplete bool) {
	hits, misses := c.Stats()
	total := hits + misses
	rate := 0.0
	if total > 0 {
		rate = 100 * float64(hits) / float64(total)
	}
	shards := c.ShardStats()
	maxLen, used := 0, 0
	for _, sh := range shards {
		if sh.Len > maxLen {
			maxLen = sh.Len
		}
		if sh.Len > 0 {
			used++
		}
	}
	mean := float64(c.Len()) / float64(len(shards))
	marker := ""
	if incomplete {
		marker = " (incomplete)"
	}
	fmt.Fprintf(os.Stderr,
		"eelprof: schedule cache%s: %d/%d blocks, %d hits / %d misses (%.1f%% hit rate), %d/%d shards occupied (max %d, mean %.1f entries)\n",
		marker, c.Len(), c.Capacity(), hits, misses, rate, used, len(shards), maxLen, mean)
}

// reportOptimalCacheStats extends the -cachestats report for the exact
// engine: a schedule whose search ran out of budget carries no
// optimality certificate and is never inserted into the cache, so the
// bypass count explains occupancy gaps the plain cache report can't.
func reportOptimalCacheStats(engine core.Engine, reg *obs.Registry, incomplete bool) {
	if engine != core.EngineOptimal || reg == nil {
		return
	}
	c := reg.Counters()
	marker := ""
	if incomplete {
		marker = " (incomplete)"
	}
	fmt.Fprintf(os.Stderr,
		"eelprof: optimal engine%s: %d/%d blocks proven optimal, %d improved (%d cycles), %d budget-exhausted, %d unproven schedules bypassed the cache\n",
		marker,
		c["core.optimal_proven_total"], c["core.optimal_blocks_total"],
		c["core.optimal_improved_total"], c["core.optimal_cycles_saved_total"],
		c["core.optimal_budget_exhausted"], c["core.optimal_cache_bypass_total"])
}
