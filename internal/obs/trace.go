package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

// MaxTraceSpans bounds the spans one Trace can hold. Appends past the
// cap are counted (TraceExport.Dropped) rather than grown, so traced
// requests never allocate per span and the flight recorder's memory is
// bounded by construction.
const MaxTraceSpans = 64

// TraceSpan is one named interval inside a Trace. Start is an offset
// from the trace's own start so exported traces are self-contained;
// Parent is the index of the enclosing span, -1 for a top-level span.
// Top-level spans of a request trace are the latency decomposition: the
// daemon's tests and CI assert they sum to the trace's wall time.
type TraceSpan struct {
	Name    string   `json:"name"`
	Parent  int32    `json:"parent"`
	StartNs int64    `json:"start_ns"`
	DurNs   int64    `json:"dur_ns"`
	Notes   []string `json:"notes,omitempty"` // "key=value" annotations
}

// Trace is one request's span tree. It follows the
// registry's disabled-is-nil convention: every method on a nil *Trace is
// an inlineable no-op, so instrumented code pays one pointer test when
// tracing is off. Span appends are lock-free — a slot index is reserved
// with one atomic add and the slot is written by its owner only — so
// concurrent handler goroutines and scheduler workers can annotate the
// same trace. The exported metadata fields (Route, Code, ...) are owned
// by the single goroutine that created the trace and must be set before
// Finish.
type Trace struct {
	id    string
	kind  string
	start time.Time

	n     atomic.Int32
	spans []TraceSpan // len MaxTraceSpans, slot i valid iff i < n

	mu     sync.Mutex
	annots []string // "key=value", cold path

	wallNs atomic.Int64 // set once by Finish

	// Request metadata, set by the owning goroutine before Finish.
	Route    string
	Tenant   string
	Anomaly  string // "", "error", "quota", "slow"
	Code     int
	BytesIn  int64
	BytesOut int64
}

// NewTrace starts a trace of the given kind (eeld uses "request") with a
// fresh random ID and the clock running.
func NewTrace(kind string) *Trace {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fall back to the monotonic clock; uniqueness only matters for
		// joining log lines, not for correctness.
		now := time.Now().UnixNano()
		for i := range b {
			b[i] = byte(now >> (8 * i))
		}
	}
	return &Trace{
		id:    hex.EncodeToString(b[:]),
		kind:  kind,
		start: time.Now(),
		spans: make([]TraceSpan, MaxTraceSpans),
	}
}

// ID returns the trace's hex ID ("" on nil).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// SinceStart returns nanoseconds elapsed since the trace started.
func (t *Trace) SinceStart() int64 {
	if t == nil {
		return 0
	}
	return time.Since(t.start).Nanoseconds()
}

// reserve claims the next span slot, returning -1 when the trace is
// full (the overflow is still counted so exports report drops).
func (t *Trace) reserve() int32 {
	i := t.n.Add(1) - 1
	if int(i) >= len(t.spans) {
		return -1
	}
	return i
}

// SpanRef is a handle to an open span. A nil or dropped handle is a
// no-op, so callers never check for overflow.
type SpanRef struct {
	t     *Trace
	idx   int32
	start time.Time
}

// StartSpan opens a top-level span. See StartChild.
func (t *Trace) StartSpan(name string) *SpanRef { return t.StartChild(name, -1) }

// StartChild opens a span under the given parent index (-1 = top
// level). Returns nil on a nil trace and a dropped handle when the
// trace's span table is full.
func (t *Trace) StartChild(name string, parent int32) *SpanRef {
	if t == nil {
		return nil
	}
	i := t.reserve()
	if i < 0 {
		return &SpanRef{t: t, idx: -1}
	}
	now := time.Now()
	t.spans[i] = TraceSpan{Name: name, Parent: parent, StartNs: now.Sub(t.start).Nanoseconds()}
	return &SpanRef{t: t, idx: i, start: now}
}

// Idx returns the span's slot index, -1 when nil or dropped. Use it as
// the parent for child spans.
func (s *SpanRef) Idx() int32 {
	if s == nil {
		return -1
	}
	return s.idx
}

// Note attaches a key=value annotation to the span.
func (s *SpanRef) Note(key, value string) {
	if s == nil || s.idx < 0 {
		return
	}
	sp := &s.t.spans[s.idx]
	sp.Notes = append(sp.Notes, key+"="+value)
}

// End closes the span, recording its duration. Idempotent in the sense
// that a second End overwrites the duration with the longer interval.
func (s *SpanRef) End() {
	if s == nil || s.idx < 0 {
		return
	}
	s.t.spans[s.idx].DurNs = time.Since(s.start).Nanoseconds()
}

// AddSpan records a fully-formed span — used by code that measured an
// interval itself (e.g. the scheduler's per-phase aggregates merged
// across workers). startNs is an offset from the trace start. Returns
// the span's index, -1 on nil or overflow.
func (t *Trace) AddSpan(name string, parent int32, startNs, durNs int64, notes ...string) int32 {
	if t == nil {
		return -1
	}
	i := t.reserve()
	if i < 0 {
		return -1
	}
	var ns []string
	if len(notes) > 0 {
		ns = append(ns, notes...)
	}
	t.spans[i] = TraceSpan{Name: name, Parent: parent, StartNs: startNs, DurNs: durNs, Notes: ns}
	return i
}

// Annotate attaches a trace-level key=value annotation.
func (t *Trace) Annotate(key, value string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.annots = append(t.annots, key+"="+value)
	t.mu.Unlock()
}

// Finish stops the clock. The first call wins; later calls keep the
// original wall time so a drained request's trace is not re-stamped.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.wallNs.CompareAndSwap(0, time.Since(t.start).Nanoseconds())
}

// WallNs returns the finished wall time (elapsed time if not finished).
func (t *Trace) WallNs() int64 {
	if t == nil {
		return 0
	}
	if w := t.wallNs.Load(); w != 0 {
		return w
	}
	return t.SinceStart()
}

// TraceExport is a finished trace's JSON shape — one line of the flight
// recorder dump and of the access log, validated in CI against
// schemas/trace.schema.json.
type TraceExport struct {
	TraceID     string      `json:"trace_id"`
	Kind        string      `json:"kind"`
	Route       string      `json:"route,omitempty"`
	Tenant      string      `json:"tenant,omitempty"`
	Code        int         `json:"code,omitempty"`
	StartUnixNs int64       `json:"start_unix_ns"`
	WallNs      int64       `json:"wall_ns"`
	BytesIn     int64       `json:"bytes_in,omitempty"`
	BytesOut    int64       `json:"bytes_out,omitempty"`
	Anomaly     string      `json:"anomaly,omitempty"`
	Dropped     int         `json:"dropped_spans,omitempty"`
	Annots      []string    `json:"annotations,omitempty"`
	Spans       []TraceSpan `json:"spans"`
}

// Export snapshots the trace. Call after Finish and after all span
// owners are done (the daemon guarantees this by exporting only once
// the handler, and every scheduling worker it started, has returned).
func (t *Trace) Export() *TraceExport {
	if t == nil {
		return nil
	}
	n := int(t.n.Load())
	dropped := 0
	if n > len(t.spans) {
		dropped = n - len(t.spans)
		n = len(t.spans)
	}
	spans := make([]TraceSpan, n)
	for i := 0; i < n; i++ {
		sp := t.spans[i]
		if len(sp.Notes) > 0 {
			sp.Notes = append([]string(nil), sp.Notes...)
		}
		spans[i] = sp
	}
	t.mu.Lock()
	annots := append([]string(nil), t.annots...)
	t.mu.Unlock()
	return &TraceExport{
		TraceID:     t.id,
		Kind:        t.kind,
		Route:       t.Route,
		Tenant:      t.Tenant,
		Code:        t.Code,
		StartUnixNs: t.start.UnixNano(),
		WallNs:      t.WallNs(),
		BytesIn:     t.BytesIn,
		BytesOut:    t.BytesOut,
		Anomaly:     t.Anomaly,
		Dropped:     dropped,
		Annots:      annots,
		Spans:       spans,
	}
}

// TopSpanNs sums the durations of top-level (Parent == -1) spans: the
// latency attribution the 5%-of-wall acceptance check is made against.
func (e *TraceExport) TopSpanNs() int64 {
	if e == nil {
		return 0
	}
	var sum int64
	for i := range e.Spans {
		if e.Spans[i].Parent == -1 {
			sum += e.Spans[i].DurNs
		}
	}
	return sum
}

// traceKey carries a (*Trace, parent span index) pair in a Context.
type traceKey struct{}

type traceCtx struct {
	t      *Trace
	parent int32
}

// WithTrace attaches t to ctx with spans parenting at top level.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return WithTraceParent(ctx, t, -1)
}

// WithTraceParent attaches t to ctx; spans recorded downstream parent
// at the given span index.
func WithTraceParent(ctx context.Context, t *Trace, parent int32) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, traceCtx{t: t, parent: parent})
}

// TraceFrom returns the trace carried by ctx, nil if none.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := TraceParentFrom(ctx)
	return t
}

// TraceParentFrom returns ctx's trace and the span index downstream
// spans should parent under ((nil, -1) if none).
func TraceParentFrom(ctx context.Context) (*Trace, int32) {
	if ctx == nil {
		return nil, -1
	}
	if tc, ok := ctx.Value(traceKey{}).(traceCtx); ok {
		return tc.t, tc.parent
	}
	return nil, -1
}
