// Command schedtrace inspects, diffs and replays the per-block decision
// traces the scheduler writes under -trace (one JSON line per block; see
// core.BlockTrace):
//
//	schedtrace traces/sched.jsonl                 # per-block summary
//	schedtrace -block 17 traces/sched.jsonl       # dump block 17's decisions
//	schedtrace -diff a/sched.jsonl b/sched.jsonl  # first diverging decision
//	schedtrace -replay traces/sched.jsonl         # golden-diff re-schedule
//	schedtrace -traceid 9f1c... traces/sched.jsonl # one daemon request's blocks
//
// -traceid keeps only blocks stamped with the given daemon request
// trace ID (eeld stamps every decision trace with the request trace it
// was scheduled under — see GET /debug/flight), narrowing a shared
// trace file to the blocks of one request. Composes with -block and
// -replay.
//
// -diff compares two traces of the same input decision by decision —
// ready set, chosen instruction, stall count, issue cycle — and exits
// non-zero at the first divergence. Tie-break reasons are engine-specific
// labels and are reported but never compared, so a fast-engine trace can
// be diffed against a reference-engine trace: byte-identical schedules
// must make byte-identical decisions.
//
// -replay re-schedules every block from the trace's recorded input
// instructions (traces carry full decoded instructions, so no executable
// is needed) under the engine the trace names — overridable with
// -engine — and exits non-zero if any emitted schedule differs from the
// recorded output. This is the golden-diff debugging loop for engine
// divergences: record once, replay against the revision (or engine)
// under suspicion. Replay rebuilds schedulers the way the CLIs do, over
// the compiled "fast" oracle, so it rejects traces recorded over any
// other oracle (a test's pipe.State or a custom hardware model).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"eel/internal/core"
	"eel/internal/sparc"
	"eel/internal/spawn"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "schedtrace:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		block      = flag.Int("block", -1, "dump one block's decisions")
		diff       = flag.Bool("diff", false, "diff two trace files decision by decision")
		replay     = flag.Bool("replay", false, "re-schedule each block's input and diff against the recorded output")
		engineName = flag.String("engine", "", "override the traced engine for -replay (fast or optimal)")
		traceID    = flag.String("traceid", "", "keep only blocks scheduled under this daemon request trace ID")
	)
	flag.Parse()

	switch {
	case *diff:
		if flag.NArg() != 2 {
			return fmt.Errorf("-diff needs exactly two trace files")
		}
		a, err := readTraces(flag.Arg(0))
		if err != nil {
			return err
		}
		b, err := readTraces(flag.Arg(1))
		if err != nil {
			return err
		}
		return diffTraces(a, b)
	case flag.NArg() != 1:
		fmt.Fprintln(os.Stderr, "usage: schedtrace [flags] trace.jsonl")
		os.Exit(2)
	}
	traces, err := readTraces(flag.Arg(0))
	if err != nil {
		return err
	}
	if *traceID != "" {
		kept := traces[:0]
		for i := range traces {
			if traces[i].TraceID == *traceID {
				kept = append(kept, traces[i])
			}
		}
		if len(kept) == 0 {
			return fmt.Errorf("no blocks carry trace ID %s (was the daemon run with -flight or -log?)", *traceID)
		}
		traces = kept
	}
	switch {
	case *replay:
		return replayTraces(traces, *engineName)
	case *block >= 0:
		for i := range traces {
			if traces[i].Block == *block {
				dumpTrace(&traces[i])
				return nil
			}
		}
		return fmt.Errorf("block %d not in trace", *block)
	}
	summarize(traces)
	return nil
}

// readTraces parses a JSONL trace file in record order.
func readTraces(path string) ([]core.BlockTrace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []core.BlockTrace
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var t core.BlockTrace
		if err := json.Unmarshal(sc.Bytes(), &t); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, t)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

func summarize(traces []core.BlockTrace) {
	steps, changed, kept := 0, 0, 0
	for i := range traces {
		t := &traces[i]
		steps += len(t.Steps)
		if !instsEqual(t.Input, t.Output) {
			changed++
		}
		if t.KeptOriginal {
			kept++
		}
	}
	if len(traces) > 0 {
		t := &traces[0]
		fmt.Printf("model=%s engine=%s oracle=%s\n", t.Model, t.Engine, t.Oracle)
	}
	fmt.Printf("%d blocks, %d decisions, %d reordered, %d kept by the cost guard\n",
		len(traces), steps, changed, kept)
}

func dumpTrace(t *core.BlockTrace) {
	fmt.Printf("block %d: %d insts, model=%s engine=%s oracle=%s",
		t.Block, len(t.Input), t.Model, t.Engine, t.Oracle)
	if t.KeptOriginal {
		fmt.Print(" (guard kept original)")
	}
	fmt.Println()
	for i, s := range t.Steps {
		fmt.Printf("  %3d: ready=%v chose %d %-28q stalls=%d issue=%d (%s)\n",
			i, s.Ready, s.Chosen, s.Inst, s.Stalls, s.Issue, s.Reason)
	}
	fmt.Println("  output:")
	for i, asm := range t.Asm {
		fmt.Printf("  %3d: %s\n", i, asm)
	}
}

// diffTraces compares decisions block by block and reports the first
// divergence. Blocks pair by (batch index, occurrence) — a run tracing
// several edit passes repeats indices, and concurrent workers write
// blocks out of order, so position in the file means nothing. Reasons
// are engine-specific and not compared; everything else a decision
// carries must match.
func diffTraces(a, b []core.BlockTrace) error {
	am := indexTraces(a)
	bm := indexTraces(b)
	for key, t := range am {
		u, ok := bm[key]
		if !ok {
			return fmt.Errorf("block %d (pass %s) only in first trace", t.Block, key)
		}
		if err := diffBlock(t, u); err != nil {
			return err
		}
	}
	for key, u := range bm {
		if _, ok := am[key]; !ok {
			return fmt.Errorf("block %d (pass %s) only in second trace", u.Block, key)
		}
	}
	fmt.Printf("identical: %d blocks\n", len(a))
	return nil
}

func indexTraces(ts []core.BlockTrace) map[string]*core.BlockTrace {
	m := make(map[string]*core.BlockTrace, len(ts))
	seen := make(map[int]int, len(ts))
	for i := range ts {
		k := fmt.Sprintf("%d#%d", ts[i].Block, seen[ts[i].Block])
		seen[ts[i].Block]++
		m[k] = &ts[i]
	}
	return m
}

func diffBlock(a, b *core.BlockTrace) error {
	if !instsEqual(a.Input, b.Input) {
		return fmt.Errorf("block %d: inputs differ — traces are not of the same program", a.Block)
	}
	n := len(a.Steps)
	if len(b.Steps) < n {
		n = len(b.Steps)
	}
	for i := 0; i < n; i++ {
		x, y := &a.Steps[i], &b.Steps[i]
		switch {
		case !readyEqual(x.Ready, y.Ready):
			return fmt.Errorf("block %d step %d: ready sets diverge: %v vs %v", a.Block, i, x.Ready, y.Ready)
		case x.Chosen != y.Chosen:
			return fmt.Errorf("block %d step %d: picks diverge: %d (%s, %s) vs %d (%s, %s)",
				a.Block, i, x.Chosen, x.Inst, x.Reason, y.Chosen, y.Inst, y.Reason)
		case x.Stalls != y.Stalls:
			return fmt.Errorf("block %d step %d: stalls diverge on %s: %d vs %d", a.Block, i, x.Inst, x.Stalls, y.Stalls)
		case x.Issue != y.Issue:
			return fmt.Errorf("block %d step %d: issue cycles diverge on %s: %d vs %d", a.Block, i, x.Inst, x.Issue, y.Issue)
		}
	}
	if len(a.Steps) != len(b.Steps) {
		return fmt.Errorf("block %d: step counts diverge: %d vs %d", a.Block, len(a.Steps), len(b.Steps))
	}
	if !instsEqual(a.Output, b.Output) {
		return fmt.Errorf("block %d: outputs diverge after identical decisions (CTI refill?)", a.Block)
	}
	return nil
}

// replayTraces re-schedules every recorded input and golden-diffs the
// emitted schedule against the recorded output.
func replayTraces(traces []core.BlockTrace, engineName string) error {
	scheds := map[string]*core.Scheduler{}
	bad := 0
	for i := range traces {
		t := &traces[i]
		if t.Oracle != "fast" {
			return fmt.Errorf("block %d: traced over the %q oracle; -replay rebuilds schedulers over the compiled \"fast\" oracle only", t.Block, t.Oracle)
		}
		eng := t.Engine
		if engineName != "" {
			eng = engineName
		}
		key := t.Model + "/" + eng
		s := scheds[key]
		if s == nil {
			engine, err := core.ParseEngine(eng)
			if err != nil {
				return fmt.Errorf("block %d: %w (use -engine to override a reference-engine trace)", t.Block, err)
			}
			model, err := spawn.Load(spawn.Machine(t.Model))
			if err != nil {
				return err
			}
			s = core.New(model, core.Options{Engine: engine})
			scheds[key] = s
		}
		out, err := s.ScheduleBlock(t.Input)
		if err != nil {
			return fmt.Errorf("block %d: replay failed: %w", t.Block, err)
		}
		if !instsEqual(out, t.Output) {
			bad++
			fmt.Printf("block %d diverges:\n", t.Block)
			for j := 0; j < len(out) || j < len(t.Output); j++ {
				var was, now string
				if j < len(t.Output) {
					was = t.Output[j].String()
				}
				if j < len(out) {
					now = out[j].String()
				}
				marker := " "
				if was != now {
					marker = "!"
				}
				fmt.Printf("  %s %3d: %-28s | %s\n", marker, j, was, now)
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d blocks diverge from the recorded schedule", bad, len(traces))
	}
	fmt.Printf("replay identical: %d blocks\n", len(traces))
	return nil
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

func readyEqual(a, b []int32) bool {
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
