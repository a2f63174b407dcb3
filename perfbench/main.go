// Command perfbench is the repository's benchmark. It drives one named
// workload as a closed loop for a fixed time, checks every op's output,
// and prints the result as one JSON object on the last line of standard
// output:
//
//	go run . --workload table-row --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (set-up time,
// throughput, latency, CPU and memory per op, schedule quality). With
// --trace 1 the run alternates untraced and traced segments and prints
// per-layer metrics read from the spans the program already records,
// plus the tracing overhead. README.md explains the workloads and which
// end-to-end metric each layer metric should move.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupSamples is how many fresh processes time the set-up; setup_s is
// their median. Each is a new process so that caches the program keeps
// in memory (machine models, pools) start cold every time.
const setupSamples = 5

// processStart is when this process started, near enough: package
// initialisation runs first thing.
var processStart = time.Now()

// workloads maps each workload name to its constructor.
var workloads = map[string]func(seed int64) driver{
	"table-row":         newTableRow,
	"rpc-schedule-hot":  newScheduleHot,
	"rpc-schedule-cold": newScheduleCold,
	"rpc-edit":          newEdit,
}

// driver runs one workload. setup does everything up to the first
// timed op and reports the harness's own share of that time (request
// encoding, payload generation) so set-up time can exclude it. segment
// runs timed ops for about budget — table-row always runs whole passes —
// and check verifies what the timed ops returned; a workload records
// failed ops in its segment stats as it goes.
type driver interface {
	setup(traced bool, l *setupLayers) (harness time.Duration, err error)
	segment(traced bool, budget time.Duration) (*runStats, error)
	check(st *runStats) error
	quality() (hiddenPct, cyclesRatio float64)
	layers(l *layerAcc) // adds workload-specific per-layer inputs
	close() error
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured time")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	setupOnly := fs.Bool("setup-only", false, "set up, print a ready line and exit (set-up timing child)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	newWorkload, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown -workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if *setupOnly {
		return setupChild(newWorkload(*seed))
	}

	gate := newCalmGate(processStart)
	var setups []float64
	if *trace == 0 {
		gate.wait()
		for len(setups) < setupSamples {
			host := readHostCPU()
			s, err := timeSetupChild(*name, *seed)
			if err != nil {
				return fmt.Errorf("set-up sample %d: %w", len(setups), err)
			}
			if gate.discard(host.stealPct(readHostCPU())) {
				gate.wait()
				continue
			}
			setups = append(setups, s)
		}
	}

	w := newWorkload(*seed)
	sl := &setupLayers{}
	if _, err := w.setup(*trace == 1, sl); err != nil {
		w.close()
		return fmt.Errorf("set-up: %w", err)
	}
	host := readHostCPU()
	budget := time.Duration(*seconds * float64(time.Second))
	var res result
	var err error
	if *trace == 0 {
		res, err = measure(w, budget, setups, gate)
	} else {
		res, err = measureTraced(w, budget, sl)
	}
	steal := host.stealPct(readHostCPU())
	if cerr := w.close(); err == nil && cerr != nil {
		err = fmt.Errorf("shutdown: %w", cerr)
	}
	if err != nil {
		return err
	}
	diag, _ := json.Marshal(map[string]any{"diagnostics": map[string]any{
		"workload": *name, "seed": *seed, "nproc": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "steal_pct": steal,
		"contended_segments": gate.discarded, "calm_wait_s": gate.waited.Seconds(),
	}})
	fmt.Println(string(diag))
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// setupChild is the body of a set-up timing process: set up, report the
// harness's share of the set-up on a ready line, shut down.
func setupChild(w driver) error {
	harness, err := w.setup(false, &setupLayers{})
	if err != nil {
		w.close()
		return err
	}
	fmt.Printf("ready %d\n", harness.Nanoseconds())
	return w.close()
}

// timeSetupChild starts a fresh copy of this program in set-up-only mode
// and returns the seconds from process start to its ready line, minus
// the harness time it reports.
func timeSetupChild(name string, seed int64) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "--setup-only", "--workload", name, "--seed", strconv.FormatInt(seed, 10))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, rerr := bufio.NewReader(stdout).ReadString('\n')
	elapsed := time.Since(start)
	if werr := cmd.Wait(); werr != nil {
		return 0, werr
	}
	if rerr != nil {
		return 0, fmt.Errorf("reading ready line: %w", rerr)
	}
	var harnessNs int64
	if _, err := fmt.Sscanf(line, "ready %d", &harnessNs); err != nil {
		return 0, fmt.Errorf("bad ready line %q: %w", line, err)
	}
	return (elapsed - time.Duration(harnessNs)).Seconds(), nil
}

// segments splits a run's budget. Throughput, latency percentiles, CPU
// per op and peak RSS are the median over the calmer half of the
// segments the calm gate kept: the half during which the host stole the
// least CPU time. Even a few per cent of steal slows the program by
// several times that share, and it varies from second to second.
const segments = 10

// segmentTimes is one segment's metrics and the steal while it ran
// (hostCPU.stealPct).
type segmentTimes struct {
	steal, perSec, cpuPerOp, p50, p90, rssMB float64
}

// calmerHalf returns the half of segs (rounded up) with the least steal.
func calmerHalf(segs []segmentTimes) []segmentTimes {
	s := append([]segmentTimes(nil), segs...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].steal < s[j].steal })
	return s[:(len(s)+1)/2]
}

// measure is the untraced run: timed segments until the budget is
// spent, then the output checks and the end-to-end metrics.
func measure(w driver, budget time.Duration, setups []float64, gate *calmGate) (result, error) {
	st := &runStats{}
	var segs []segmentTimes
	var kept time.Duration
	rss := startRSSSampler()
	defer rss.stop()
	gate.wait()
	rss.takePeak()
	for kept < budget {
		host := readHostCPU()
		seg, err := w.segment(false, min(budget/segments, budget-kept))
		if err != nil {
			return result{}, err
		}
		st.add(seg)
		steal := host.stealPct(readHostCPU())
		rssMB := rss.takePeak()
		if gate.discard(steal) {
			gate.wait()
			continue
		}
		kept += seg.wall
		if seg.ops > 0 {
			segs = append(segs, segmentTimes{
				steal:    steal,
				rssMB:    rssMB,
				perSec:   float64(seg.ops) / seg.wall.Seconds(),
				cpuPerOp: ms(seg.cpu) / float64(seg.ops),
				p50:      ms(percentile(seg.lats, 0.50)),
				p90:      ms(percentile(seg.lats, 0.90)),
			})
		}
	}
	segs = calmerHalf(segs)
	checkErr := w.check(st)
	if checkErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: check:", checkErr)
	}
	if st.ops == 0 {
		return result{}, errors.New("no op completed")
	}
	hidden, ratio := w.quality()
	m := map[string]metric{
		"setup_s":            {median(setups), "s"},
		"ops_per_s":          {medianOf(segs, func(s segmentTimes) float64 { return s.perSec }), "1/s"},
		"p50_ms":             {medianOf(segs, func(s segmentTimes) float64 { return s.p50 }), "ms"},
		"p90_ms":             {medianOf(segs, func(s segmentTimes) float64 { return s.p90 }), "ms"},
		"cpu_ms_per_op":      {medianOf(segs, func(s segmentTimes) float64 { return s.cpuPerOp }), "ms"},
		"max_rss_mb":         {medianOf(segs, func(s segmentTimes) float64 { return s.rssMB }), "MB"},
		"hidden_pct":         {hidden, "%"},
		"sched_cycles_ratio": {ratio, "ratio"},
	}
	return result{
		Correct:   checkErr == nil && st.failed == 0,
		Attempted: st.ops,
		Failed:    st.failed,
		Metrics:   m,
	}, nil
}

// measureTraced alternates untraced and traced segments, half the budget
// each, so the tracing overhead is measured under the same host load as
// the traced numbers. Per-layer metrics come from the traced half only.
func measureTraced(w driver, budget time.Duration, sl *setupLayers) (result, error) {
	plain, traced := &runStats{}, &runStats{}
	half := budget / 2
	seg := budget / segments
	for plain.wall < half || traced.wall < half {
		for _, tr := range []bool{false, true} {
			st := plain
			if tr {
				st = traced
			}
			if st.wall >= half {
				continue
			}
			s, err := w.segment(tr, min(seg, half-st.wall))
			if err != nil {
				return result{}, err
			}
			st.add(s)
		}
	}
	all := &runStats{}
	all.add(plain)
	all.add(traced)
	checkErr := w.check(all)
	if checkErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: check:", checkErr)
	}
	if plain.ops == 0 || traced.ops == 0 {
		return result{}, errors.New("no op completed")
	}
	acc := newLayerAcc(traced)
	w.layers(acc)
	m := acc.metrics(sl)
	overhead := (float64(traced.ops) / traced.wall.Seconds()) / (float64(plain.ops) / plain.wall.Seconds())
	m["trace.overhead_ratio"] = metric{overhead, "ratio"}
	spanOK := acc.spanSumOK()
	if !spanOK {
		fmt.Fprintf(os.Stderr, "perfbench: top-level spans sum to %.2f%% of op wall time (want within 5%%)\n",
			m["trace.span_sum_pct"].Value)
	}
	return result{
		Correct:   checkErr == nil && all.failed == 0 && spanOK,
		Attempted: all.ops,
		Failed:    all.failed,
		Metrics:   m,
	}, nil
}
