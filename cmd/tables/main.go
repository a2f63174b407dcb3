// Command tables regenerates the paper's evaluation tables:
//
//	tables -table 1      Table 1: slow profiling on the UltraSPARC
//	tables -table 2      Table 2: same, with a rescheduled baseline
//	tables -table 3      Table 3: slow profiling on the SuperSPARC
//	tables -summary      the per-suite averages quoted in §1 and §5
//	tables -table 1 -benchmarks 130.li,102.swim   (subset)
//
// -insts scales each benchmark's dynamic length (default 600k); larger
// runs are slower but less noisy. -workers sizes the scheduling worker
// pool and -tableworkers the benchmark-row pool (0 = GOMAXPROCS for
// both); both change wall-clock time only, never a table. -engine
// optimal replaces the paper's greedy scheduler with the exact
// branch-and-bound search. -json emits the table as JSON instead of the
// paper's format. Flag values that would silently mean something else
// (-insts 0, a negative -tableworkers, an unknown -engine) exit 2.
//
// -metrics writes the run's telemetry (per-hazard stall attribution,
// per-row wall time with a slowest_rows top-5, simulator totals, phase
// spans, a run manifest) as JSON, or Prometheus text when the path ends
// in .prom; telemetry never changes a table. -trace writes per-block
// scheduling decision traces into a directory for cmd/schedtrace, and
// -pprof serves net/http/pprof for the life of the run.
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"strings"

	"eel/internal/bench"
	"eel/internal/core"
	"eel/internal/obs"
	"eel/internal/spawn"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(1)
	}
}

// run isolates every error path so main can turn each one into a
// non-zero exit code (CI depends on that).
func run() error {
	var (
		table      = flag.Int("table", 0, "table to regenerate (1, 2 or 3)")
		summary    = flag.Bool("summary", false, "print the per-suite averages for all three tables")
		insts      = flag.Uint64("insts", 600_000, "approximate dynamic instructions per run")
		seed       = flag.Int64("seed", 0, "workload generation seed")
		benchmarks = flag.String("benchmarks", "", "comma-separated benchmark subset")
		validate   = flag.Bool("validate", false, "cross-check profile counts between runs")
		workers    = flag.Int("workers", 0, "scheduling worker pool size (0 = GOMAXPROCS)")
		tworkers   = flag.Int("tableworkers", 0, "benchmark-row worker pool size (0 = GOMAXPROCS)")
		engineName = flag.String("engine", "fast", "scheduling engine: fast (greedy list scheduling) or optimal (branch-and-bound exact)")
		jsonOut    = flag.Bool("json", false, "emit the table as JSON instead of the paper's text format")
		metricsOut = flag.String("metrics", "", "write telemetry to this file (JSON, or Prometheus text for .prom)")
		traceDir   = flag.String("trace", "", "write per-block scheduling decision traces into this directory")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060)")
	)
	flag.Parse()
	engine, err := checkFlags(*engineName, *insts, *tworkers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(2)
	}
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "tables: pprof:", err)
			}
		}()
	}

	var reg *obs.Registry
	if *metricsOut != "" {
		reg = obs.NewRegistry()
		reg.SetManifest("tool", "tables")
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

	// Unknown names are rejected by bench.RunTable itself, which lists
	// every unknown benchmark in one error.
	subset := []string(nil)
	if *benchmarks != "" {
		subset = strings.Split(*benchmarks, ",")
	}
	mk := func(machine spawn.Machine, resched bool) bench.TableConfig {
		cfg := bench.TableConfig{
			Machine:            machine,
			RescheduleBaseline: resched,
			DynamicInsts:       *insts,
			Seed:               *seed,
			Benchmarks:         subset,
			ValidateCounts:     *validate,
			Workers:            *workers,
			Engine:             engine,
			TableWorkers:       *tworkers,
			Obs:                reg,
		}
		cfg.Sched.Trace = trace
		return cfg
	}
	configs := map[int]bench.TableConfig{
		1: mk(spawn.UltraSPARC, false),
		2: mk(spawn.UltraSPARC, true),
		3: mk(spawn.SuperSPARC, false),
	}

	if *summary {
		for _, n := range []int{1, 2, 3} {
			t, err := bench.RunTable(configs[n])
			if err != nil {
				return err
			}
			ii, is, ih, _ := t.Averages(false)
			fi, fs, fh, _ := t.Averages(true)
			fmt.Printf("Table %d (%s%s):\n", n, t.Config.Machine, rescheduleNote(t.Config))
			fmt.Printf("  CINT95: inst %.2fx  sched %.2fx  hidden %.1f%%\n", ii, is, ih)
			fmt.Printf("  CFP95:  inst %.2fx  sched %.2fx  hidden %.1f%%\n", fi, fs, fh)
		}
		return writeMetrics(reg, *metricsOut)
	}

	cfg, ok := configs[*table]
	if !ok {
		fmt.Fprintln(os.Stderr, "tables: pass -table 1, 2 or 3, or -summary")
		os.Exit(2)
	}
	t, err := bench.RunTable(cfg)
	if err != nil {
		return err
	}
	if err := writeMetrics(reg, *metricsOut); err != nil {
		return err
	}
	if *jsonOut {
		return t.WriteJSON(os.Stdout)
	}
	fmt.Printf("Table %d: %s", *table, t.String())
	return nil
}

// checkFlags resolves -engine and rejects the flag values run would
// otherwise silently reinterpret: -insts 0 (bench.RunTable's 600k
// default) and a negative -tableworkers (GOMAXPROCS).
func checkFlags(engineName string, insts uint64, tableWorkers int) (core.Engine, error) {
	engine, err := core.ParseEngine(engineName)
	if err != nil {
		return 0, fmt.Errorf("-engine: %w", err)
	}
	if insts == 0 {
		return 0, fmt.Errorf("-insts 0: must be at least 1")
	}
	if tableWorkers < 0 {
		return 0, fmt.Errorf("-tableworkers %d: must be at least 0", tableWorkers)
	}
	return engine, nil
}

// writeMetrics exports the telemetry registry, if one was requested.
func writeMetrics(reg *obs.Registry, path string) error {
	if reg == nil || path == "" {
		return nil
	}
	return reg.WriteFile(path)
}

func rescheduleNote(c bench.TableConfig) string {
	if c.RescheduleBaseline {
		return ", rescheduled baseline"
	}
	return ""
}
