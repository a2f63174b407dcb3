package daemon

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"eel/internal/obs"
	"eel/internal/sparc"
	"eel/internal/spawn"
	"eel/internal/workload"
)

// fetchFlight pulls GET /debug/flight and parses the JSONL dump.
func fetchFlight(t *testing.T, url string) []*obs.TraceExport {
	t.Helper()
	resp, err := http.Get(url + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("flight: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("flight content-type %q", ct)
	}
	var out []*obs.TraceExport
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var e obs.TraceExport
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("flight line %q: %v", sc.Text(), err)
		}
		out = append(out, &e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// spanSumSlackNs is the absolute slack the 5%-of-wall attribution check
// allows on top of the percentage, so microsecond-scale requests (where
// span bookkeeping itself is a visible fraction) don't flap.
const spanSumSlackNs = 200_000

// checkSpanSum asserts the trace's top-level spans sum to its wall time
// within tol (fraction) plus the absolute slack — ISSUE 10's acceptance
// bar, mirrored by cmd/metricscheck -trace-sums in CI.
func checkSpanSum(t *testing.T, e *obs.TraceExport, tol float64) {
	t.Helper()
	sum := e.TopSpanNs()
	diff := e.WallNs - sum
	if diff < 0 {
		diff = -diff
	}
	allow := int64(tol*float64(e.WallNs)) + spanSumSlackNs
	if diff > allow {
		t.Errorf("trace %s (%s): spans sum to %dns of %dns wall (diff %dns > allowed %dns)\nspans: %+v",
			e.TraceID, e.Route, sum, e.WallNs, diff, allow, e.Spans)
	}
}

func spanNames(e *obs.TraceExport) map[string]obs.TraceSpan {
	m := make(map[string]obs.TraceSpan, len(e.Spans))
	for _, sp := range e.Spans {
		m[sp.Name] = sp
	}
	return m
}

func noteValue(sp obs.TraceSpan, key string) string {
	for _, n := range sp.Notes {
		if strings.HasPrefix(n, key+"=") {
			return n[len(key)+1:]
		}
	}
	return ""
}

// TestRequestTraceAttribution drives both /v1 routes with tracing on and
// checks the tentpole invariants: every 200 request trace's top-level
// spans sum to its wall time within 5% (+ absolute slack), the span
// taxonomy is present per route, and the scheduler's phase spans nest
// under the schedule request's one scheduling span.
func TestRequestTraceAttribution(t *testing.T) {
	_, ts := testServer(t, Config{Flight: obs.NewFlight(64)})

	// Half the blocks end in a branch and its delay slot, so the
	// scheduler's CTI phase has work to attribute.
	words := blockWords(t, 31, 30)
	for i := 0; i < len(words); i += 2 {
		words[i] = append(words[i], sparc.MustEncode(sparc.NewBranch(sparc.CondNE, -4)), sparc.MustEncode(sparc.NewNop()))
	}
	resp, body := postSchedule(t, ts, "trace-tenant", scheduleRequest{Blocks: words})
	if resp.StatusCode != 200 {
		t.Fatalf("schedule: %d %s", resp.StatusCode, body)
	}
	image := editImage(t)
	eresp, err := ts.Client().Post(ts.URL+"/v1/edit?op=reschedule&machine=ultrasparc",
		"application/octet-stream", bytes.NewReader(image))
	if err != nil {
		t.Fatal(err)
	}
	ebody := new(bytes.Buffer)
	ebody.ReadFrom(eresp.Body)
	eresp.Body.Close()
	if eresp.StatusCode != 200 {
		t.Fatalf("edit: %d %s", eresp.StatusCode, ebody)
	}

	traces := fetchFlight(t, ts.URL)
	byKindRoute := func(kind, route string) *obs.TraceExport {
		for _, e := range traces {
			if e.Kind == kind && e.Route == route {
				return e
			}
		}
		t.Fatalf("no %s/%s trace in flight dump (%d traces)", kind, route, len(traces))
		return nil
	}

	sched := byKindRoute("request", "/v1/schedule")
	checkSpanSum(t, sched, 0.05)
	if sched.Tenant != "trace-tenant" {
		t.Errorf("schedule trace tenant %q", sched.Tenant)
	}
	if sched.BytesIn == 0 || sched.BytesOut == 0 {
		t.Errorf("schedule trace bytes in/out = %d/%d, want both > 0", sched.BytesIn, sched.BytesOut)
	}
	var top []string
	for _, sp := range sched.Spans {
		if sp.Parent == -1 {
			top = append(top, sp.Name)
		}
	}
	if got, want := strings.Join(top, ","), "admit.wait,req.decode,schedule,respond.encode"; got != want {
		t.Fatalf("schedule trace top-level spans %s, want %s: %+v", got, want, sched.Spans)
	}
	sspans := spanNames(sched)
	for _, name := range []string{"sched.depgraph", "sched.ready", "sched.cti", "cache.lookup"} {
		sp, ok := sspans[name]
		if !ok || sp.Parent < 0 || sched.Spans[sp.Parent].Name != "schedule" {
			t.Errorf("%s missing or not under the schedule span: %+v", name, sched.Spans)
		}
	}

	edit := byKindRoute("request", "/v1/edit")
	checkSpanSum(t, edit, 0.05)
	espans := spanNames(edit)
	for _, name := range []string{"admit.wait", "req.decode", "cache.lookup", "eel.edit", "respond.encode"} {
		if _, ok := espans[name]; !ok {
			t.Fatalf("edit trace missing span %s: %+v", name, edit.Spans)
		}
	}
	// Two cache.lookup spans can coexist in an edit trace: the editor
	// LRU's at top level and the core scheduler's aggregate nested under
	// eel.schedule; the editor one carries the editor= note.
	var editorNote string
	for _, sp := range edit.Spans {
		if sp.Name == "cache.lookup" && sp.Parent == -1 {
			editorNote = noteValue(sp, "editor")
		}
	}
	if editorNote != "miss" {
		t.Errorf("first edit cache.lookup editor note %q, want miss", editorNote)
	}
	// The edit's scheduling phases hang under eel.schedule, which hangs
	// under eel.edit — children, so exempt from the top-level sum.
	if _, ok := espans["eel.schedule"]; !ok {
		t.Fatalf("edit trace missing eel.schedule child: %+v", edit.Spans)
	}

	// Every flight line validates against the committed trace schema.
	raw, err := os.ReadFile("../../schemas/trace.schema.json")
	if err != nil {
		t.Fatal(err)
	}
	schema, err := obs.ParseSchema(raw)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range traces {
		line, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if errs := schema.Validate(line); len(errs) > 0 {
			t.Fatalf("trace %s fails schema: %v", e.TraceID, errs)
		}
	}
}

// editImage builds a small executable for /v1/edit tests.
func editImage(t *testing.T) []byte {
	t.Helper()
	b, ok := workload.ByName("130.li", spawn.UltraSPARC)
	if !ok {
		t.Fatal("130.li missing")
	}
	x, err := workload.Generate(b, workload.Config{
		Machine: spawn.UltraSPARC, DynamicInsts: 1 << 13, Seed: 5, SkipCalibration: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return x.Marshal()
}

// TestFlightDisabled404: without -flight the endpoint 404s with the
// structured error envelope, and requests pay no tracing.
func TestFlightDisabled404(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, err := ts.Client().Get(ts.URL + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
	var e errorBody
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Fatalf("flight 404 body not an error envelope: %v", err)
	}
}

// TestAnomalyClassification: quota rejections and slow requests land in
// the flight recorder's anomaly ring with the right label.
func TestAnomalyClassification(t *testing.T) {
	flight := obs.NewFlight(4)
	_, ts := testServer(t, Config{
		Flight:         flight,
		SlowRequest:    50 * time.Millisecond,
		AllowTestDelay: true,
	})
	words := blockWords(t, 37, 2)

	// Slow: the test-delay hook holds the request past SlowRequest.
	body, _ := json.Marshal(scheduleRequest{Blocks: words})
	hr, _ := http.NewRequest("POST", ts.URL+"/v1/schedule?delay_ms=80", bytes.NewReader(body))
	resp, err := ts.Client().Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Error: empty block list.
	r2, _ := postSchedule(t, ts, "", scheduleRequest{})
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad request status %d", r2.StatusCode)
	}

	got := map[string]bool{}
	for _, e := range fetchFlight(t, ts.URL) {
		if e.Anomaly != "" {
			got[e.Anomaly] = true
		}
	}
	for _, want := range []string{"slow", "error"} {
		if !got[want] {
			t.Errorf("no %q anomaly retained; have %v", want, got)
		}
	}
}

// TestDrainUnderLoad is the satellite drain test: with requests in
// flight, StartDraining + server shutdown + Drain must leave a cleanly
// terminated access log (every line complete JSON, schema-valid) and
// the drained requests retained in the flight recorder.
func TestDrainUnderLoad(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "access.jsonl")
	access, err := obs.CreateJSONL(logPath)
	if err != nil {
		t.Fatal(err)
	}
	flight := obs.NewFlight(64)
	cfg := Config{
		Registry:       obs.NewRegistry(),
		Flight:         flight,
		AccessLog:      access,
		AllowTestDelay: true,
		MaxInflight:    8,
	}
	s := New(cfg)
	srv := &http.Server{Handler: s}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	url := "http://" + ln.Addr().String()

	words := blockWords(t, 41, 3)
	const inFlight = 4
	var wg sync.WaitGroup
	codes := make([]int, inFlight)
	for i := 0; i < inFlight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(scheduleRequest{Blocks: words})
			resp, err := http.Post(fmt.Sprintf("%s/v1/schedule?delay_ms=300", url),
				"application/json", bytes.NewReader(body))
			if err != nil {
				return
			}
			codes[i] = resp.StatusCode
			resp.Body.Close()
		}(i)
	}
	// Let the requests get admitted, then drain mid-flight.
	deadline := time.Now().Add(2 * time.Second)
	for s.admission.Inflight() < inFlight {
		if time.Now().After(deadline) {
			t.Fatalf("only %d requests in flight", s.admission.Inflight())
		}
		time.Sleep(time.Millisecond)
	}
	s.StartDraining()
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	// cmd/eeld closes the access log after Drain; mirror that here
	// (Close flushes and closes the underlying file).
	if err := access.Close(); err != nil {
		t.Fatal(err)
	}

	completed := 0
	for _, c := range codes {
		if c == 200 {
			completed++
		}
	}
	if completed == 0 {
		t.Fatal("no in-flight request completed through the drain")
	}

	// Access log: byte-clean JSONL, every line schema-valid.
	raw, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 || raw[len(raw)-1] != '\n' {
		t.Fatalf("access log truncated: %d bytes, no trailing newline", len(raw))
	}
	schemaRaw, err := os.ReadFile("../../schemas/trace.schema.json")
	if err != nil {
		t.Fatal(err)
	}
	schema, err := obs.ParseSchema(schemaRaw)
	if err != nil {
		t.Fatal(err)
	}
	logged := 0
	for _, line := range bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n")) {
		var e obs.TraceExport
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("access log line %q: %v", line, err)
		}
		if errs := schema.Validate(line); len(errs) > 0 {
			t.Fatalf("access log line fails schema: %v", errs)
		}
		if e.Route == "/v1/schedule" {
			logged++
		}
	}
	if logged < completed {
		t.Fatalf("access log has %d schedule lines, want >= %d completed", logged, completed)
	}

	// Flight recorder retained the drained requests too.
	recorded, _ := flight.Stats()
	if recorded < int64(completed) {
		t.Fatalf("flight recorded %d traces, want >= %d", recorded, completed)
	}
}
