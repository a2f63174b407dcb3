package main

import (
	"slices"
	"strconv"
	"strings"
	"time"
)

// setupLayers times the set-up's calls into each package, from outside.
type setupLayers struct {
	spawnLoad, generate, boot time.Duration
}

func (l *setupLayers) time(into *time.Duration, f func() error) error {
	t0 := time.Now()
	err := f()
	*into += time.Since(t0)
	return err
}

// spanTotal is the summed duration and count of one span name.
type spanTotal struct {
	ns int64
	n  int
}

// layerAcc turns the traces of the traced segments into per-layer
// metrics. It reads only spans the program records itself (eel.EditCtx
// under a request or op trace, the scheduler's phase spans, the daemon's
// request and batch traces) and the wrappers around table-row's calls.
type layerAcc struct {
	ops        int   // op traces: one per table row, one per daemon request
	opWallNs   int64 // their wall time
	topNs      int64 // their top-level spans
	reconciled int   // ops whose top-level spans are within 5% of wall
	spans      map[string]spanTotal

	batches                    int
	batchBlocks                int64
	hits, lookups              int64 // schedule cache, from the scheduler's spans
	editorHits, editorLookups  int   // the daemon's editor LRU
	clientOps                  int
	clientNs                   int64 // client round trips, rpc workloads
	schedCalls                 int   // scheduler invocations (set by the workload)
	simNs, simInsts, passInsts int64 // table-row's simulator calls
	openNs, openInsts          int64 // eel.Open, table-row wrapper or daemon editor misses
}

// spanSlack is the reconciliation rule: an op's top-level spans must sum
// to its wall time within this share.
const spanSlack = 0.05

func newLayerAcc(st *runStats) *layerAcc {
	l := &layerAcc{spans: make(map[string]spanTotal), clientOps: len(st.lats)}
	for _, d := range st.lats {
		l.clientNs += d.Nanoseconds()
	}
	for _, tr := range st.traces {
		switch tr.Kind {
		case "batch":
			l.batches++
			for _, a := range tr.Annots {
				if v, ok := strings.CutPrefix(a, "blocks="); ok {
					n, _ := strconv.ParseInt(v, 10, 64)
					l.batchBlocks += n
				}
			}
		default:
			l.ops++
			l.opWallNs += tr.WallNs
			top := tr.TopSpanNs()
			l.topNs += top
			if d := float64(top - tr.WallNs); d <= spanSlack*float64(tr.WallNs) && -d <= spanSlack*float64(tr.WallNs) {
				l.reconciled++
			}
		}
		for _, sp := range tr.Spans {
			name := sp.Name
			if name == "cache.lookup" {
				if sp.Parent == -1 {
					// The daemon's editor LRU lookup, noted editor=hit|miss.
					name = "editor.lookup"
					l.editorLookups++
					if slices.Contains(sp.Notes, "editor=hit") {
						l.editorHits++
					}
				} else {
					// The scheduler's schedule-cache lookups, noted hits=h/n.
					for _, note := range sp.Notes {
						if v, ok := strings.CutPrefix(note, "hits="); ok {
							h, n, _ := strings.Cut(v, "/")
							hn, _ := strconv.ParseInt(h, 10, 64)
							nn, _ := strconv.ParseInt(n, 10, 64)
							l.hits += hn
							l.lookups += nn
						}
					}
				}
			}
			t := l.spans[name]
			t.ns += sp.DurNs
			t.n++
			l.spans[name] = t
		}
	}
	return l
}

// spanSumOK applies the reconciliation rule to the run's totals.
func (l *layerAcc) spanSumOK() bool {
	if l.opWallNs == 0 {
		return false
	}
	d := float64(l.topNs-l.opWallNs) / float64(l.opWallNs)
	return d <= spanSlack && -d <= spanSlack
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perSpanUs is the mean duration of one span name, in microseconds.
func (l *layerAcc) perSpanUs(name string) float64 {
	t := l.spans[name]
	return div(float64(t.ns)/1e3, float64(t.n))
}

// perOpUs is one span name's total per op, in microseconds.
func (l *layerAcc) perOpUs(name string) float64 {
	return div(float64(l.spans[name].ns)/1e3, float64(l.ops))
}

// perCallUs is one scheduler phase's total per scheduler invocation.
func (l *layerAcc) perCallUs(name string) float64 {
	return div(float64(l.spans[name].ns)/1e3, float64(l.schedCalls))
}

// metrics renders every per-layer metric. A layer an op never enters
// reads 0: that is the "should not move" side of README.md's mapping.
func (l *layerAcc) metrics(sl *setupLayers) map[string]metric {
	// The span enclosing one scheduler invocation: the batcher's
	// batch.schedule, or eel.Edit's eel.schedule on the editing paths.
	schedNs := l.spans["batch.schedule"].ns
	if l.batches == 0 {
		schedNs = l.spans["eel.schedule"].ns
	}
	serverUs := div(float64(l.opWallNs)/1e3, float64(l.ops))
	transport := 0.0
	if l.editorLookups > 0 || l.batches > 0 { // daemon workloads
		transport = div(float64(l.clientNs)/1e3, float64(l.clientOps)) - serverUs
	}
	return map[string]metric{
		"spawn.load_ms":            {ms(sl.spawnLoad), "ms"},
		"workload.generate_ms":     {ms(sl.generate), "ms"},
		"daemon.boot_ms":           {ms(sl.boot), "ms"},
		"sim.run_ms":               {div(float64(l.simNs)/1e6, float64(l.ops)), "ms"},
		"sim.ns_per_inst":          {div(float64(l.simNs), float64(l.simInsts)), "ns"},
		"sim.insts":                {float64(l.passInsts), "count"},
		"eel.open_ns_per_inst":     {div(float64(l.openNs), float64(l.openInsts)), "ns"},
		"eel.instrument_us":        {l.perOpUs("eel.instrument"), "us"},
		"eel.schedule_us":          {l.perOpUs("eel.schedule"), "us"},
		"eel.layout_us":            {l.perOpUs("eel.layout"), "us"},
		"daemon.editor_open_us":    {l.perSpanUs("editor.lookup"), "us"},
		"daemon.editor_hit_pct":    {div(100*float64(l.editorHits), float64(l.editorLookups)), "%"},
		"core.schedule_us":         {div(float64(schedNs)/1e3, float64(l.schedCalls)), "us"},
		"core.ns_per_block":        {div(float64(schedNs), float64(l.lookups)), "ns"},
		"core.depgraph_us":         {l.perCallUs("sched.depgraph"), "us"},
		"core.ready_us":            {l.perCallUs("sched.ready"), "us"},
		"core.cti_us":              {l.perCallUs("sched.cti"), "us"},
		"core.cache_hit_pct":       {div(100*float64(l.hits), float64(l.lookups)), "%"},
		"daemon.admit_wait_us":     {l.perSpanUs("admit.wait"), "us"},
		"daemon.decode_us":         {l.perSpanUs("req.decode"), "us"},
		"daemon.batch_queue_us":    {l.perSpanUs("batch.queue"), "us"},
		"daemon.batch_gather_us":   {l.perSpanUs("batch.gather"), "us"},
		"daemon.batch_blocks":      {div(float64(l.batchBlocks), float64(l.batches)), "count"},
		"daemon.encode_us":         {l.perSpanUs("respond.encode"), "us"},
		"http.transport_us":        {transport, "us"},
		"trace.span_sum_pct":       {div(100*float64(l.topNs), float64(l.opWallNs)), "%"},
		"trace.ops_reconciled_pct": {div(100*float64(l.reconciled), float64(l.ops)), "%"},
	}
}
