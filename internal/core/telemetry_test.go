package core

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"eel/internal/obs"
	"eel/internal/sparc"
	"eel/internal/spawn"
)

// memTraceSink collects traces in memory for inspection.
type memTraceSink struct {
	mu     sync.Mutex
	traces []*BlockTrace
}

func (m *memTraceSink) TraceBlock(t *BlockTrace) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.traces = append(m.traces, t)
	return nil
}

func (m *memTraceSink) byBlock() map[int]*BlockTrace {
	out := make(map[int]*BlockTrace, len(m.traces))
	for _, t := range m.traces {
		out[t.Block] = t
	}
	return out
}

// engineOracleCombos is the four-way matrix the acceptance criteria
// quantify over.
func engineOracleCombos() []Options {
	return []Options{
		{Engine: EngineFast, Oracle: OracleFast},
		{Engine: EngineFast, Oracle: OracleReference},
		{Engine: EngineReference, Oracle: OracleFast},
		{Engine: EngineReference, Oracle: OracleReference},
	}
}

// withoutReplays drops sched.telemetry.replays from a counter map. The
// replay count describes how the records were made (inline, from the
// cache, or by replay), not the blocks scheduled, so it is the one
// counter that legitimately differs between engines and capture modes.
func withoutReplays(c map[string]int64) map[string]int64 {
	delete(c, "sched.telemetry.replays")
	return c
}

// TestTelemetryAttributionAcrossEnginesAndOracles schedules the same
// workload under every engine × oracle combination, each into a fresh
// registry, and requires every exported counter — per-hazard stall
// attribution included — to be identical across all four. This is the
// acceptance criterion "attribution byte-identical across oracles and
// engines" at the scheduler level; the oracle level is covered in
// internal/pipe.
func TestTelemetryAttributionAcrossEnginesAndOracles(t *testing.T) {
	model := spawn.MustLoad(spawn.UltraSPARC)
	blocks := randomBlocks(rand.New(rand.NewSource(21)), 150)
	var base map[string]int64
	var baseName string
	for _, opts := range engineOracleCombos() {
		name := fmt.Sprintf("engine=%s/oracle=%s", opts.Engine, opts.Oracle)
		reg := obs.NewRegistry()
		opts.Workers = 1
		opts.Obs = reg
		s := New(model, opts)
		if _, err := s.ScheduleBlocks(blocks); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := withoutReplays(reg.Counters())
		if base == nil {
			base, baseName = got, name
			continue
		}
		if !reflect.DeepEqual(base, got) {
			t.Errorf("telemetry counters diverge between %s and %s:\n%v\nvs\n%v",
				baseName, name, base, got)
		}
	}
	if base["sched.ultrasparc.stall_cycles_total"] == 0 {
		t.Fatalf("workload produced no classified stall cycles — the equivalence test is vacuous: %v", base)
	}
	if base["sched.ultrasparc.telemetry_replay_errors"] != 0 {
		t.Fatalf("replay errors on a plain workload: %v", base)
	}
}

// TestTelemetryCountsConsistent checks the sink's internal arithmetic:
// the total equals the per-kind sums, data kinds break down into
// register classes, and structural stalls break down into units.
func TestTelemetryCountsConsistent(t *testing.T) {
	model := spawn.MustLoad(spawn.UltraSPARC)
	blocks := randomBlocks(rand.New(rand.NewSource(22)), 200)
	reg := obs.NewRegistry()
	s := New(model, Options{Workers: 1, Obs: reg})
	if _, err := s.ScheduleBlocks(blocks); err != nil {
		t.Fatal(err)
	}
	c := reg.Counters()
	p := "sched.ultrasparc."
	if got := c[p+"blocks_total"]; got != int64(len(blocks)) {
		t.Fatalf("blocks_total = %d, want %d", got, len(blocks))
	}
	kinds := []string{"raw", "war", "waw", "structural"}
	var kindSum int64
	for _, k := range kinds {
		kindSum += c[p+"stall_cycles."+k]
	}
	if total := c[p+"stall_cycles_total"]; total != kindSum || total == 0 {
		t.Fatalf("stall_cycles_total = %d, per-kind sum = %d", total, kindSum)
	}
	for _, k := range []string{"raw", "war", "waw"} {
		var classSum int64
		for _, cl := range []string{"int", "float", "cc", "y"} {
			classSum += c[p+"stall_cycles."+k+".class."+cl]
		}
		if classSum != c[p+"stall_cycles."+k] {
			t.Errorf("%s: class sum %d != kind count %d", k, classSum, c[p+"stall_cycles."+k])
		}
	}
	var unitSum int64
	for name, v := range c {
		if strings.HasPrefix(name, p+"stall_cycles.structural.unit.") {
			unitSum += v
		}
	}
	if unitSum != c[p+"stall_cycles.structural"] {
		t.Errorf("unit sum %d != structural count %d", unitSum, c[p+"stall_cycles.structural"])
	}
	if c["sched.pool.batches_total"] != 1 {
		t.Errorf("batches_total = %d, want 1", c["sched.pool.batches_total"])
	}
}

// TestTelemetryDeterministicAcrossWorkersAndCache requires attribution
// to describe the scheduled blocks, not the execution strategy: worker
// count must not change a single counter, and a cache-served pass must
// contribute exactly the same attribution as the pass that populated it
// (cache hits add the record their miss stored, not nothing).
func TestTelemetryDeterministicAcrossWorkersAndCache(t *testing.T) {
	model := spawn.MustLoad(spawn.UltraSPARC)
	blocks := randomBlocks(rand.New(rand.NewSource(23)), 120)

	attribution := func(workers int, cache *Cache, passes int) map[string]int64 {
		reg := obs.NewRegistry()
		s := New(model, Options{Workers: workers, Cache: cache, Obs: reg})
		for i := 0; i < passes; i++ {
			if _, err := s.ScheduleBlocks(blocks); err != nil {
				t.Fatal(err)
			}
		}
		out := make(map[string]int64)
		for name, v := range reg.Counters() {
			if strings.Contains(name, "stall_cycles") || strings.Contains(name, "cycles_hidden") {
				out[name] = v
			}
		}
		return out
	}

	w1 := attribution(1, nil, 1)
	w4 := attribution(4, nil, 1)
	if !reflect.DeepEqual(w1, w4) {
		t.Errorf("attribution depends on worker count:\n%v\nvs\n%v", w1, w4)
	}

	cache := NewCache(4096)
	twoPass := attribution(1, cache, 2)
	if hits, _ := cache.Stats(); hits == 0 {
		t.Fatalf("second pass took no cache hits — the record-on-hit path was not exercised")
	}
	for name, v := range w1 {
		if twoPass[name] != 2*v {
			t.Errorf("%s: two passes recorded %d, want exactly double the single pass (%d)",
				name, twoPass[name], 2*v)
		}
	}
}

// TestTelemetryDisabledIsNil pins the disabled representation: no
// registry, no telemetry state, and scheduling output identical to an
// instrumented run.
func TestTelemetryDisabledIsNil(t *testing.T) {
	model := spawn.MustLoad(spawn.UltraSPARC)
	blocks := randomBlocks(rand.New(rand.NewSource(24)), 60)
	plain := New(model, Options{Workers: 1})
	if plain.tel != nil {
		t.Fatalf("scheduler without a registry built telemetry state")
	}
	want, err := plain.ScheduleBlocks(blocks)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	sink := &memTraceSink{}
	instrumented := New(model, Options{Workers: 1, Obs: reg, Trace: sink})
	got, err := instrumented.ScheduleBlocks(blocks)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("telemetry changed a schedule")
	}
	if len(sink.traces) != len(blocks) {
		t.Fatalf("got %d traces for %d blocks", len(sink.traces), len(blocks))
	}
}

// TestTraceEnginesAgreeDecisionForDecision runs both engines over the
// same workload with tracing on and compares every decision: ready set,
// chosen index, stall count, issue cycle. Reasons are engine-specific
// labels and deliberately not compared. This is the in-process version
// of `schedtrace -diff`.
func TestTraceEnginesAgreeDecisionForDecision(t *testing.T) {
	model := spawn.MustLoad(spawn.UltraSPARC)
	blocks := randomBlocks(rand.New(rand.NewSource(25)), 80)
	run := func(engine Engine) *memTraceSink {
		sink := &memTraceSink{}
		s := New(model, Options{Workers: 1, Engine: engine, Trace: sink})
		if _, err := s.ScheduleBlocks(blocks); err != nil {
			t.Fatal(err)
		}
		return sink
	}
	fast := run(EngineFast).byBlock()
	ref := run(EngineReference).byBlock()
	if len(fast) != len(blocks) || len(ref) != len(blocks) {
		t.Fatalf("trace counts: fast %d, reference %d, want %d", len(fast), len(ref), len(blocks))
	}
	for idx := range blocks {
		f, r := fast[idx], ref[idx]
		if f == nil || r == nil {
			t.Fatalf("block %d missing from a trace", idx)
		}
		if f.Engine != "fast" || r.Engine != "reference" {
			t.Fatalf("engine labels: %q, %q", f.Engine, r.Engine)
		}
		if len(f.Steps) != len(r.Steps) {
			t.Fatalf("block %d: step counts %d vs %d", idx, len(f.Steps), len(r.Steps))
		}
		for i := range f.Steps {
			a, b := f.Steps[i], r.Steps[i]
			if !reflect.DeepEqual(a.Ready, b.Ready) || a.Chosen != b.Chosen ||
				a.Stalls != b.Stalls || a.Issue != b.Issue {
				t.Fatalf("block %d step %d: decisions diverge:\nfast: %+v\nref:  %+v", idx, i, a, b)
			}
		}
		if !reflect.DeepEqual(f.Output, r.Output) {
			t.Fatalf("block %d: traced outputs diverge", idx)
		}
	}
}

// TestTraceBypassesCache requires a warm cache not to swallow traces: a
// trace of a cached block must still carry its decisions, and tracing
// must not populate the cache with anything it did not verify.
func TestTraceBypassesCache(t *testing.T) {
	model := spawn.MustLoad(spawn.UltraSPARC)
	blocks := randomBlocks(rand.New(rand.NewSource(26)), 40)
	cache := NewCache(4096)
	warm := New(model, Options{Workers: 1, Cache: cache})
	if _, err := warm.ScheduleBlocks(blocks); err != nil {
		t.Fatal(err)
	}
	hits0, _ := cache.Stats()

	sink := &memTraceSink{}
	traced := New(model, Options{Workers: 1, Cache: cache, Trace: sink})
	out, err := traced.ScheduleBlocks(blocks)
	if err != nil {
		t.Fatal(err)
	}
	hits1, _ := cache.Stats()
	if hits1 != hits0 {
		t.Fatalf("tracing took %d cache hits — cached blocks have no decisions to record", hits1-hits0)
	}
	if len(sink.traces) != len(blocks) {
		t.Fatalf("got %d traces, want %d", len(sink.traces), len(blocks))
	}
	for _, tr := range sink.traces {
		if len(tr.Input) > 1 && len(tr.Steps) == 0 {
			t.Fatalf("block %d traced with no steps", tr.Block)
		}
		if !reflect.DeepEqual(tr.Output, out[tr.Block]) {
			t.Fatalf("block %d: trace output differs from returned schedule", tr.Block)
		}
	}
}

// TestTraceJSONRoundTrip pins the property schedtrace -replay depends
// on: a BlockTrace survives JSON encoding losslessly, and its recorded
// input reschedules to its recorded output.
func TestTraceJSONRoundTrip(t *testing.T) {
	model := spawn.MustLoad(spawn.UltraSPARC)
	blocks := randomBlocks(rand.New(rand.NewSource(27)), 10)
	sink := &memTraceSink{}
	s := New(model, Options{Workers: 1, Trace: sink})
	if _, err := s.ScheduleBlocks(blocks); err != nil {
		t.Fatal(err)
	}
	replayer := New(model, Options{})
	for _, tr := range sink.traces {
		data, err := json.Marshal(tr)
		if err != nil {
			t.Fatal(err)
		}
		var back BlockTrace
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tr.Input, back.Input) || !reflect.DeepEqual(tr.Output, back.Output) ||
			!reflect.DeepEqual(tr.Steps, back.Steps) {
			t.Fatalf("block %d: trace does not round-trip through JSON", tr.Block)
		}
		out, err := replayer.ScheduleBlock(back.Input)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out, back.Output) {
			t.Fatalf("block %d: replayed schedule diverges from the recorded output", tr.Block)
		}
	}
}

// TestTelemetryDisabledOverheadGuard is the committed overhead guard for
// the disabled path (ISSUE 5 acceptance). The only in-process baseline
// available is the instrumented run itself, so the guard is phrased as:
// scheduling with telemetry disabled must not be slower than scheduling
// with it enabled (which does two extra oracle replays per block), within
// a 3% noise allowance, min-of-K with retries. The allocation half of the
// guard — the sharper regression tripwire — is
// TestScheduleBlockDisabledAllocations below and the zero-alloc probe
// assertions in internal/pipe.
func TestTelemetryDisabledOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard skipped in -short")
	}
	model := spawn.MustLoad(spawn.UltraSPARC)
	blocks := randomBlocks(rand.New(rand.NewSource(28)), 400)
	disabled := New(model, Options{Workers: 1})
	enabled := New(model, Options{Workers: 1, Obs: obs.NewRegistry()})
	run := func(s *Scheduler) {
		if _, err := s.ScheduleBlocks(blocks); err != nil {
			t.Fatal(err)
		}
	}
	run(disabled) // warm pools
	run(enabled)
	minOf := func(s *Scheduler, k int) time.Duration {
		best := time.Duration(1<<63 - 1)
		for i := 0; i < k; i++ {
			start := time.Now()
			run(s)
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	const limit = 1.03
	var ratio float64
	for attempt := 0; attempt < 5; attempt++ {
		d := minOf(disabled, 4)
		e := minOf(enabled, 4)
		ratio = float64(d) / float64(e)
		if ratio < limit {
			return
		}
	}
	t.Fatalf("disabled-telemetry scheduling is %.1f%% slower than enabled — the nil path is doing work",
		(ratio-1)*100)
}

// TestTelemetryEnabledOverheadGuard is the committed acceptance bound
// for the inline-capture path: scheduling with telemetry enabled may
// cost at most 10% over disabled on the line-rate configuration. Before
// per-worker aggregation the enabled path replayed every block through
// the oracle twice (~1.5×); inline capture attributes during the passes
// the scheduler already runs, so the remaining overhead is counter
// accumulation and the per-batch shard flush. Same best-of-k shape as
// the disabled guard to keep shared-runner noise from flaking it.
func TestTelemetryEnabledOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard skipped in -short")
	}
	model := spawn.MustLoad(spawn.UltraSPARC)
	blocks := randomBlocks(rand.New(rand.NewSource(28)), 400)
	disabled := New(model, Options{Workers: 1})
	enabled := New(model, Options{Workers: 1, Obs: obs.NewRegistry()})
	run := func(s *Scheduler) {
		if _, err := s.ScheduleBlocks(blocks); err != nil {
			t.Fatal(err)
		}
	}
	run(disabled) // warm pools
	run(enabled)
	minOf := func(s *Scheduler, k int) time.Duration {
		best := time.Duration(1<<63 - 1)
		for i := 0; i < k; i++ {
			start := time.Now()
			run(s)
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	const limit = 1.10
	var ratio float64
	for attempt := 0; attempt < 5; attempt++ {
		d := minOf(disabled, 4)
		e := minOf(enabled, 4)
		ratio = float64(e) / float64(d)
		if ratio < limit {
			return
		}
	}
	t.Fatalf("enabled-telemetry scheduling is %.1f%% slower than disabled, want < 10%%",
		(ratio-1)*100)
}

// TestScheduleBlockDisabledAllocations caps the per-block allocations of
// the disabled-telemetry path on the production configuration (fast
// engine, fast oracle — the reference implementations allocate by
// design). The output slice and its backing array are inherent; the cap
// leaves a little slack for the runtime, but a telemetry leak into the
// disabled path (a StallAttr, a trace step, a registry lookup) blows
// straight through it. The oracle probe paths themselves are held to
// exactly zero allocations, for both oracles, in internal/pipe.
func TestScheduleBlockDisabledAllocations(t *testing.T) {
	model := spawn.MustLoad(spawn.UltraSPARC)
	block := randomBlocks(rand.New(rand.NewSource(29)), 1)[0]
	s := New(model, Options{Engine: EngineFast, Oracle: OracleFast})
	for i := 0; i < 3; i++ { // settle lazily grown scratch
		if _, err := s.ScheduleBlock(block); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.ScheduleBlock(block); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("%.1f allocs per disabled-telemetry block, want <= 4", allocs)
	}
}

// BenchmarkScheduleBlocksTelemetry records the telemetry layer's cost in
// the perf trajectory: the disabled series must track the plain
// BenchmarkScheduleBlocks numbers, the enabled series prices the two
// replay passes.
func BenchmarkScheduleBlocksTelemetry(b *testing.B) {
	model := spawn.MustLoad(spawn.UltraSPARC)
	blocks := randomBlocks(rand.New(rand.NewSource(1)), 2000)
	for _, mode := range []string{"disabled", "enabled"} {
		b.Run(mode, func(b *testing.B) {
			opts := Options{Workers: 1}
			if mode == "enabled" {
				opts.Obs = obs.NewRegistry()
			}
			s := New(model, opts)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.ScheduleBlocks(blocks); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestTelemetryInlineCaptureMatchesReplay is the differential test for
// the per-worker inline capture path: the telForceReplay hook pins the
// old post-schedule replay attribution, and every exported counter and
// histogram must match it count for count, across the engine × oracle
// matrix and across worker counts. Inline capture only engages on the
// fast-engine/fast-oracle line-rate configuration — every other combo
// replays on both sides — so the matrix proves both that the capture is
// exact where it runs and that the fallback detection is airtight where
// it doesn't.
func TestTelemetryInlineCaptureMatchesReplay(t *testing.T) {
	model := spawn.MustLoad(spawn.UltraSPARC)
	blocks := randomBlocks(rand.New(rand.NewSource(23)), 200)
	for _, opts := range engineOracleCombos() {
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("engine=%s/oracle=%s/workers=%d", opts.Engine, opts.Oracle, workers)
			run := func(forceReplay bool) *obs.Export {
				reg := obs.NewRegistry()
				o := opts
				o.Workers = workers
				o.Obs = reg
				// Half the blocks cached, to cover the hit path's
				// attribution under both modes.
				o.Cache = NewCache(1024)
				s := New(model, o)
				defer s.Close()
				s.telForceReplay = forceReplay
				if _, err := s.ScheduleBlocks(blocks[:len(blocks)/2]); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if _, err := s.ScheduleBlocks(blocks); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				return reg.Snapshot()
			}
			inline, replay := run(false), run(true)
			if opts.Engine == EngineFast && opts.Oracle == OracleFast {
				// Misses capture inline and hits copy the miss's record:
				// the line-rate configuration never replays.
				if n := inline.Counters["sched.telemetry.replays"]; n != 0 {
					t.Errorf("%s: %d telemetry replays, want 0", name, n)
				}
			}
			if !reflect.DeepEqual(withoutReplays(inline.Counters), withoutReplays(replay.Counters)) {
				t.Errorf("%s: inline capture counters diverge from replay:\n%v\nvs\n%v",
					name, inline.Counters, replay.Counters)
			}
			if !reflect.DeepEqual(inline.Histograms, replay.Histograms) {
				t.Errorf("%s: inline capture histograms diverge from replay:\n%v\nvs\n%v",
					name, inline.Histograms, replay.Histograms)
			}
			if inline.Counters["sched.ultrasparc.stall_cycles_total"] == 0 {
				t.Fatalf("%s: no classified stall cycles — differential test is vacuous", name)
			}
		}
	}
}

// TestTelemetryNeverChangesSchedules asserts the observability layer is
// strictly read-only at the scheduler level: the emitted blocks are
// byte-identical with telemetry off, with inline capture, and with the
// forced replay path. (The end-to-end variant — whole tables with
// -metrics on — runs in the metrics-smoke CI job.)
func TestTelemetryNeverChangesSchedules(t *testing.T) {
	model := spawn.MustLoad(spawn.UltraSPARC)
	blocks := randomBlocks(rand.New(rand.NewSource(24)), 150)
	run := func(obsOn, forceReplay bool) [][]sparc.Inst {
		opts := Options{Workers: 1}
		if obsOn {
			opts.Obs = obs.NewRegistry()
		}
		s := New(model, opts)
		s.telForceReplay = forceReplay
		out, err := s.ScheduleBlocks(blocks)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	plain := run(false, false)
	for _, mode := range []struct {
		name        string
		forceReplay bool
	}{{"inline", false}, {"replay", true}} {
		got := run(true, mode.forceReplay)
		for i := range plain {
			if !blocksEqual(plain[i], got[i]) {
				t.Fatalf("telemetry (%s) changed block %d", mode.name, i)
			}
		}
	}
}

// TestTelemetryRecordsColdThenWarm serves one stream cold and then warm
// from the same cache. The warm pass must take every block from the
// records its misses stored — no replays, including for annulled-branch
// blocks whose records came from a replay — and the stall, hidden-cycle
// and block-cycle totals over both passes must equal the forced-replay
// run's exactly.
func TestTelemetryRecordsColdThenWarm(t *testing.T) {
	model := spawn.MustLoad(spawn.UltraSPARC)
	blocks := randomBlocks(rand.New(rand.NewSource(47)), 160)
	for i := 0; i < len(blocks); i += 9 {
		br := sparc.NewBranch(sparc.CondNE, -3)
		br.Annul = true
		blocks[i] = append(append([]sparc.Inst(nil), blocks[i][:1]...), br, sparc.NewNop())
	}
	run := func(forceReplay bool) (cold, warm *obs.Export) {
		reg := obs.NewRegistry()
		s := New(model, Options{Workers: 2, Cache: NewCache(0), Obs: reg})
		defer s.Close()
		s.telForceReplay = forceReplay
		for _, snap := range []**obs.Export{&cold, &warm} {
			if _, err := s.ScheduleBlocks(blocks); err != nil {
				t.Fatal(err)
			}
			*snap = reg.Snapshot()
		}
		return cold, warm
	}
	cold, warm := run(false)
	_, replayed := run(true)
	if n := cold.Counters["sched.telemetry.replays"]; n == 0 {
		t.Fatal("cold pass replayed nothing: the annulled blocks did not exercise the replay path")
	}
	if d := warm.Counters["sched.telemetry.replays"] - cold.Counters["sched.telemetry.replays"]; d != 0 {
		t.Errorf("warm pass replayed %d blocks, want 0", d)
	}
	if warm.Counters["sched.ultrasparc.blocks_cached"] != int64(len(blocks)) {
		t.Fatalf("warm pass cached %d blocks, want %d", warm.Counters["sched.ultrasparc.blocks_cached"], len(blocks))
	}
	for name, v := range replayed.Counters {
		if strings.Contains(name, "stall_cycles") || strings.Contains(name, "cycles_hidden") ||
			strings.Contains(name, "replay_errors") {
			if warm.Counters[name] != v {
				t.Errorf("%s = %d, forced replay %d", name, warm.Counters[name], v)
			}
		}
	}
	for _, name := range []string{"sched.ultrasparc.block_cycles", "sched.ultrasparc.block_stall_cycles"} {
		if !reflect.DeepEqual(warm.Histograms[name], replayed.Histograms[name]) {
			t.Errorf("%s: %+v, forced replay %+v", name, warm.Histograms[name], replayed.Histograms[name])
		}
	}
	if replayed.Counters["sched.ultrasparc.stall_cycles_total"] == 0 {
		t.Fatal("no classified stall cycles — the comparison is vacuous")
	}
}
