package bench

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"eel/internal/obs"
	"eel/internal/spawn"
	"eel/internal/workload"
)

// TestRunTableTelemetry runs a small table with a registry attached and
// checks that every telemetry stream the harness promises actually
// lands: per-row wall time (histogram, spans, slowest_rows extra), the
// run manifest, scheduler stall attribution, and simulator totals —
// without perturbing the emitted table.
func TestRunTableTelemetry(t *testing.T) {
	cfg := small(spawn.UltraSPARC)
	cfg.DynamicInsts = 60_000
	cfg.Benchmarks = []string{"130.li", "101.tomcatv"}

	var plain bytes.Buffer
	tab, err := RunTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.WriteJSON(&plain); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	cfg.Obs = reg
	tab, err = RunTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var instrumented bytes.Buffer
	if err := tab.WriteJSON(&instrumented); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), instrumented.Bytes()) {
		t.Errorf("telemetry changed the emitted table:\n%s\n---\n%s", plain.String(), instrumented.String())
	}

	m := reg.Manifest()
	for _, key := range []string{"go", "platform", "machine", "engine", "dynamic_insts"} {
		if m[key] == "" {
			t.Errorf("manifest missing %q: %v", key, m)
		}
	}
	if m["machine"] != "ultrasparc" {
		t.Errorf("manifest machine = %q", m["machine"])
	}

	e := reg.Snapshot()
	h, ok := e.Histograms["bench.row_millis"]
	if !ok || h.Count != int64(len(cfg.Benchmarks)) {
		t.Errorf("bench.row_millis count = %+v, want %d observations", h, len(cfg.Benchmarks))
	}
	spanNames := map[string]bool{}
	for _, sp := range e.Spans {
		spanNames[sp.Name] = true
	}
	for _, name := range cfg.Benchmarks {
		if !spanNames["bench.row."+name] {
			t.Errorf("no span for row %q (spans: %v)", name, spanNames)
		}
	}
	if e.Counters["sched.ultrasparc.blocks_total"] == 0 {
		t.Errorf("no scheduler telemetry in the table run")
	}
	if e.Counters["sim.runs_total"] == 0 || e.Counters["sim.cycles_total"] == 0 {
		t.Errorf("no simulator telemetry in the table run: %v", e.Counters)
	}
	raw, ok := e.Extras["slowest_rows"]
	if !ok {
		t.Fatalf("no slowest_rows extra")
	}
	if s := string(raw); !strings.Contains(s, "130.li") && !strings.Contains(s, "101.tomcatv") {
		t.Errorf("slowest_rows names none of the rows: %s", s)
	}
}

// TestRecordSlowestRows pins the extra's shape: descending by wall time,
// name-tiebroken, zero-duration rows dropped, truncated to five.
func TestRecordSlowestRows(t *testing.T) {
	list := []workload.Benchmark{
		{Name: "a"}, {Name: "b"}, {Name: "c"}, {Name: "d"},
		{Name: "e"}, {Name: "f"}, {Name: "zero"},
	}
	secs := []float64{0.004, 0.007, 0.001, 0.007, 0.002, 0.006, 0}
	reg := obs.NewRegistry()
	recordSlowestRows(reg, list, secs)
	raw, ok := reg.Snapshot().Extras["slowest_rows"]
	if !ok {
		t.Fatal("no slowest_rows extra recorded")
	}
	want := `[{"name":"b","millis":7},{"name":"d","millis":7},{"name":"f","millis":6},{"name":"a","millis":4},{"name":"e","millis":2}]`
	if string(raw) != want {
		t.Errorf("slowest_rows = %s\nwant          %s", raw, want)
	}

	// A nil registry must be a no-op, not a panic.
	recordSlowestRows(nil, list, secs)
}

// TestPerfFileManifests checks benchdiff's carry-forward contract: a
// series' manifest replaces only its own entry and survives a JSON
// round trip alongside the others.
func TestPerfFileManifests(t *testing.T) {
	f := &PerfFile{Series: map[string][]PerfResult{}}
	f.SetSeriesManifest("old", map[string]string{"git_rev": "aaa"})
	f.SetSeriesManifest("current", map[string]string{"git_rev": "bbb", "runner": "ci"})
	f.SetSeriesManifest("current", map[string]string{"git_rev": "ccc"})
	f.SetSeriesManifest("empty", nil) // no-op

	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/perf.json"
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := ReadPerfFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.Manifests["old"]["git_rev"] != "aaa" {
		t.Errorf("other series' manifest not carried forward: %v", g.Manifests)
	}
	if g.Manifests["current"]["git_rev"] != "ccc" || g.Manifests["current"]["runner"] != "" {
		t.Errorf("re-stamp did not replace the series block: %v", g.Manifests["current"])
	}
	if _, ok := g.Manifests["empty"]; ok {
		t.Errorf("empty manifest was recorded")
	}
}
