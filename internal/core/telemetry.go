package core

import (
	"fmt"

	"eel/internal/obs"
	"eel/internal/pipe"
	"eel/internal/sparc"
	"eel/internal/spawn"
)

// This file is the scheduler's side of the telemetry layer: when
// Options.Obs carries a registry, every scheduled block's stall cycles
// are classified by hazard (RAW, WAR, WAW, structural — per unit and
// per register class), and the original order is priced so the cycles
// scheduling hid are counted.
//
// Each scheduled block yields one compact record (blockTel). On the
// fast engine the record is captured inline: the greedy pass issues
// exactly the sequence it emits, so attaching the attribution sink
// during scheduling (scheduleBlockRaw) classifies the emitted order's
// stalls as a side effect, and the never-costs-more guard's cost replay
// of the original order doubles as the hidden-cycles measurement.
// Blocks the inline path cannot cover — annulled branches, the
// reference engine, EngineOptimal, oracles without prepared placement —
// are replayed through the oracle after scheduling instead, which is
// counter-for-counter identical (the differential test in
// telemetry_test.go pins this). A schedule-cache miss stores its record
// in the cache entry, so a hit adds the stored record rather than
// replaying the block; only an entry stored without a record is
// replayed (counted in sched.telemetry.replays). Either way the numbers
// never feed back into scheduling: enabling telemetry cannot change a
// schedule, which is why Obs is excluded from the cache key (and from
// the JSON encoding bench embeds in its tables).
//
// Workers accumulate into a private telShard — plain counters, no
// atomics — merged into the shared registry at batch end, so enabled
// telemetry adds no cross-core contention to the hot path.
//
// With Obs nil the scheduler carries a nil *telemetry and the per-block
// cost is a single pointer test; the committed overhead-guard benchmark
// in telemetry_test.go holds the disabled path under its budget.

// attrSink is the optional oracle interface for stall attribution,
// implemented by both pipe oracles.
type attrSink interface {
	SetAttribution(*pipe.StallAttr)
}

// telemetry holds the scheduler's pre-resolved instrument handles, so
// the per-block recording path is atomic adds with no map lookups.
type telemetry struct {
	reg *obs.Registry

	blocks     *obs.Counter // every block scheduled
	cached     *obs.Counter // blocks served from the schedule cache
	changed    *obs.Counter // blocks whose emitted order differs from the input
	hidden     *obs.Counter // cycles the emitted order models below the original
	stallTotal *obs.Counter // classified stall cycles in emitted schedules
	replayErrs *obs.Counter // telemetry replays the model could not price
	replays    *obs.Counter // blocks whose record came from a post-schedule replay

	kind  [pipe.NumHazards]*obs.Counter
	unit  []*obs.Counter // structural stalls by blocking unit
	class [pipe.NumHazards][pipe.NumRegClasses]*obs.Counter

	blockStalls *obs.Histogram // classified stall cycles per block
	blockCycles *obs.Histogram // modeled cycles per emitted block
	blockSize   *obs.Histogram // instructions per block

	batches      *obs.Counter   // ScheduleBlocks calls
	batchWorkers *obs.Histogram // workers used per batch
	batchBlocks  *obs.Histogram // blocks per batch
}

// newTelemetry resolves every handle the scheduler records into. Metric
// names carry the machine model, so one registry can host several
// schedulers (bench's -summary runs three machines) without mixing
// counts; registration is idempotent, so schedulers sharing a model
// share instruments.
func newTelemetry(reg *obs.Registry, model *spawn.Model) *telemetry {
	if reg == nil {
		return nil
	}
	p := "sched." + string(model.Machine) + "."
	t := &telemetry{
		reg:        reg,
		blocks:     reg.Counter(p + "blocks_total"),
		cached:     reg.Counter(p + "blocks_cached"),
		changed:    reg.Counter(p + "blocks_changed"),
		hidden:     reg.Counter(p + "cycles_hidden_total"),
		stallTotal: reg.Counter(p + "stall_cycles_total"),
		replayErrs: reg.Counter(p + "telemetry_replay_errors"),
		replays:    reg.Counter("sched.telemetry.replays"),

		blockStalls: reg.Histogram(p+"block_stall_cycles", obs.ExpBuckets(1, 12)),
		blockCycles: reg.Histogram(p+"block_cycles", obs.ExpBuckets(1, 14)),
		blockSize:   reg.Histogram(p+"block_insts", obs.ExpBuckets(1, 10)),

		batches:      reg.Counter("sched.pool.batches_total"),
		batchWorkers: reg.Histogram("sched.pool.batch_workers", obs.ExpBuckets(1, 8)),
		batchBlocks:  reg.Histogram("sched.pool.batch_blocks", obs.ExpBuckets(1, 16)),
	}
	for k := pipe.HazardKind(0); k < pipe.NumHazards; k++ {
		t.kind[k] = reg.Counter(p + "stall_cycles." + k.String())
		if k == pipe.HazardStructural {
			continue
		}
		for c := pipe.RegClass(0); c < pipe.NumRegClasses; c++ {
			t.class[k][c] = reg.Counter(fmt.Sprintf("%sstall_cycles.%s.class.%s", p, k, c))
		}
	}
	t.unit = make([]*obs.Counter, len(model.Units))
	for u := range model.Units {
		t.unit[u] = reg.Counter(p + "stall_cycles.structural.unit." + model.Units[u].Name)
	}
	return t
}

// telShard is one worker's private telemetry accumulator: the same
// shape as telemetry, with plain int64s and local histogram buffers in
// place of shared atomic instruments. A worker allocates its shard
// lazily on the first observed block, keeps it across batches (shards
// travel with the worker through the scheduler's pool), and flushes it
// into the registry at batch end.
type telShard struct {
	blocks, cached, changed  int64
	hidden, stallTotal       int64
	replayErrs, replays      int64
	kind                     [pipe.NumHazards]int64
	unit                     []int64
	class                    [pipe.NumHazards][pipe.NumRegClasses]int64
	blockStalls, blockCycles *obs.HistShard
	blockSize                *obs.HistShard
}

// newShard returns a shard sized for t's instruments.
func (t *telemetry) newShard() *telShard {
	return &telShard{
		unit:        make([]int64, len(t.unit)),
		blockStalls: t.blockStalls.NewShard(),
		blockCycles: t.blockCycles.NewShard(),
		blockSize:   t.blockSize.NewShard(),
	}
}

// flush merges w's shard into the shared instruments and clears it.
// Nil-safe on both scheduler telemetry and shard, so every exit path
// can call it unconditionally.
func (t *telemetry) flush(w *worker) {
	if t == nil || w.shard == nil {
		return
	}
	sh := w.shard
	t.blocks.Add(sh.blocks)
	t.cached.Add(sh.cached)
	t.changed.Add(sh.changed)
	t.hidden.Add(sh.hidden)
	t.stallTotal.Add(sh.stallTotal)
	t.replayErrs.Add(sh.replayErrs)
	t.replays.Add(sh.replays)
	for k := range sh.kind {
		t.kind[k].Add(sh.kind[k])
	}
	for u := range sh.unit {
		t.unit[u].Add(sh.unit[u])
	}
	for k := range sh.class {
		for c := range sh.class[k] {
			t.class[k][c].Add(sh.class[k][c])
		}
	}
	sh.blockStalls.Flush()
	sh.blockCycles.Flush()
	sh.blockSize.Flush()
	unit := sh.unit
	clear(unit)
	*sh = telShard{unit: unit,
		blockStalls: sh.blockStalls, blockCycles: sh.blockCycles, blockSize: sh.blockSize}
}

// recordCache snapshots the schedule cache into gauges. Called once per
// batch, not per block: cache stats are cumulative anyway.
func (t *telemetry) recordCache(c *Cache) {
	if t == nil || c == nil {
		return
	}
	hits, misses := c.Stats()
	t.reg.Gauge("sched.cache.hits").Set(int64(hits))
	t.reg.Gauge("sched.cache.misses").Set(int64(misses))
	t.reg.Gauge("sched.cache.len").Set(int64(c.Len()))
	t.reg.Gauge("sched.cache.capacity").Set(int64(c.Capacity()))
	t.reg.Gauge("sched.cache.shards").Set(int64(c.Shards()))
}

// recordBatch notes one ScheduleBlocks fan-out and its pool occupancy.
func (t *telemetry) recordBatch(workers, blocks int) {
	if t == nil {
		return
	}
	t.batches.Inc()
	t.batchWorkers.Observe(int64(workers))
	t.batchBlocks.Observe(int64(blocks))
}

// unpriced marks a blockTel cost the oracle could not price.
const unpriced = -1

// blockTel is one scheduled block's telemetry record: everything the
// shard counters need, compact enough that every schedule-cache entry
// can carry one (about 150 bytes), so a cache hit is a copy rather than
// an oracle replay. Records are immutable once stored in the cache.
type blockTel struct {
	telFixed
	Unit []uint32 // structural stall cycles by blocking unit
}

// telFixed is blockTel's fixed-size part, laid out for encoding/binary
// (the spill writes it as is).
type telFixed struct {
	Kind  [pipe.NumHazards]uint32
	Class [pipe.NumHazards][pipe.NumRegClasses]uint32
	Total uint32
	// After and Before are the modeled cycles of the emitted and (for
	// changed blocks) the original order, or unpriced.
	After, Before int32
	// Changed marks an emitted order that differs from the input: false
	// also when the guard kept the original order, as nothing was hidden.
	Changed bool
	Attr    bool // stall counts were captured (the oracle has a sink)
}

// setAttr copies a's counts into r, whose counts must be zero.
func (r *blockTel) setAttr(a *pipe.StallAttr) {
	r.Attr, r.Total = true, uint32(a.Total)
	for k := range a.Kind {
		r.Kind[k] = uint32(a.Kind[k])
		for c := range a.Class[k] {
			r.Class[k][c] = uint32(a.Class[k][c])
		}
	}
	for _, v := range a.Unit {
		r.Unit = append(r.Unit, uint32(v))
	}
}

// recordBlock fills w.rec with the telemetry of block scheduled as out.
// When the scheduling pass captured attribution inline (scheduleBlockRaw
// sets w.telInline), the emitted order's hazard classification and cost
// are already in hand; otherwise out — and block, when it differs — is
// replayed with the attribution sink attached. The record describes the
// blocks scheduled, not how they were scheduled, so totals are
// deterministic for a given input regardless of worker count or cache
// state.
func (s *Scheduler) recordBlock(w *worker, block, out []sparc.Inst) *blockTel {
	r := &w.rec
	*r = blockTel{telFixed{Before: unpriced, Changed: !blocksEqual(out, block)}, r.Unit[:0]}
	switch {
	case w.telInline && w.telUseBefore:
		// The guard rejected the greedy schedule: the emitted order is
		// the original, whose attribution and cost the guard's replay
		// recorded.
		r.setAttr(&w.attrBefore)
		r.After = int32(w.telBefore)
	case w.telInline:
		r.setAttr(&w.attr)
		r.After = int32(w.telAfter)
		if r.Changed {
			// The guard priced the original order on its way to
			// accepting the changed schedule.
			r.Before = int32(w.telBefore)
		}
	default:
		s.shard(w).replays++
		sink, _ := w.p.(attrSink)
		if sink != nil {
			w.attr.Reset()
			sink.SetAttribution(&w.attr)
		}
		after, err := s.sequenceCost(w.p, out)
		if sink != nil {
			sink.SetAttribution(nil)
			r.setAttr(&w.attr)
		}
		r.After = int32(after)
		if err != nil {
			// Some blocks price only in their emitted shape (an unchanged
			// CTI the model has no timing group for, say). Telemetry never
			// fails the schedule; it counts what it could not see.
			r.After = unpriced
		} else if r.Changed {
			if before, err := s.sequenceCost(w.p, block); err == nil {
				r.Before = int32(before)
			}
		}
	}
	return r
}

// shard returns w's telemetry shard, allocating it on first use.
func (s *Scheduler) shard(w *worker) *telShard {
	if w.shard == nil {
		w.shard = s.tel.newShard()
	}
	return w.shard
}

// observe adds one block's record into w's shard.
func (s *Scheduler) observe(w *worker, insts int, r *blockTel, fromCache bool) {
	sh := s.shard(w)
	sh.blocks++
	sh.blockSize.Observe(int64(insts))
	if fromCache {
		sh.cached++
	}
	if r.Changed {
		sh.changed++
	}
	if r.After == unpriced {
		sh.replayErrs++
		return
	}
	sh.blockCycles.Observe(int64(r.After))
	if r.Attr {
		sh.stallTotal += int64(r.Total)
		sh.blockStalls.Observe(int64(r.Total))
		for k := range r.Kind {
			sh.kind[k] += int64(r.Kind[k])
			for c := range r.Class[k] {
				sh.class[k][c] += int64(r.Class[k][c])
			}
		}
		for u := 0; u < len(r.Unit) && u < len(sh.unit); u++ {
			sh.unit[u] += int64(r.Unit[u])
		}
	}
	if !r.Changed {
		return
	}
	if r.Before == unpriced {
		sh.replayErrs++
		return
	}
	if d := r.Before - r.After; d > 0 {
		// The never-costs-more guard makes this non-negative whenever
		// both orders price; clamp anyway so a custom oracle's quirk
		// can never walk the counter backwards.
		sh.hidden += int64(d)
	}
}
