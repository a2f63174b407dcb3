package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"eel/internal/core"
	"eel/internal/sparc"
	"eel/internal/spawn"
)

// TestEveryMetricPrints runs a tiny pass of every workload, untraced and
// traced, and checks that the last output line is a correct result
// carrying every metric BENCHMARK.json names, with its unit.
func TestEveryMetricPrints(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := readSpec(t)
	bin := filepath.Join(t.TempDir(), "perfbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for _, wl := range spec.Workloads {
		for trace, want := range map[string][]specMetric{"0": spec.EndToEnd, "1": spec.PerLayer} {
			t.Run(wl.Name+"/trace="+trace, func(t *testing.T) {
				out, err := exec.Command(bin, "--workload", wl.Name, "--seed", "7",
					"--seconds", "1", "--trace", trace).Output()
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	for _, wl := range s.Workloads {
		if _, ok := workloads[wl.Name]; !ok {
			t.Fatalf("BENCHMARK.json names workload %q, which perfbench does not run", wl.Name)
		}
	}
	return s
}

// TestBrokenScheduleCountsAsFailed serves the cold schedule workload from
// a fake daemon that answers every request with its first block's
// dependences broken, and checks that every op counts as failed.
func TestBrokenScheduleCountsAsFailed(t *testing.T) {
	w := newScheduleCold(3).(*scheduleWorkload)
	models := make(map[spawn.Machine]*spawn.Model)
	for _, m := range spawn.Machines() {
		models[m] = spawn.MustLoad(m)
	}
	w.checker = newSchedChecker(models)
	defer w.checker.close()

	// Echoing the request back is a legal schedule: each block keeps its
	// original order.
	req, err := w.coldReq()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.checker.check(req, req.body); err != nil {
		t.Fatalf("identity response rejected: %v", err)
	}

	var broken atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		var req struct {
			Machine string     `json:"machine"`
			Blocks  [][]uint32 `json:"blocks"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		if breakDependence(t, models[spawn.Machine(req.Machine)], req.Blocks[0]) {
			broken.Add(1)
		}
		json.NewEncoder(rw).Encode(req)
	}))
	defer srv.Close()
	w.daemons.plain = &daemonHarness{base: srv.URL, client: srv.Client()}

	st, err := w.segment(false, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.ops == 0 || broken.Load() != int64(st.ops) {
		t.Fatalf("%d ops, %d with a broken block", st.ops, broken.Load())
	}
	if st.failed != st.ops {
		t.Errorf("%d of %d ops failed, want all", st.failed, st.ops)
	}
}

// breakDependence swaps the first pair of instructions in words whose
// swap VerifyDependences rejects, reporting whether it found one.
func breakDependence(t *testing.T, model *spawn.Model, words []uint32) bool {
	block, err := sparc.DecodeAll(words)
	if err != nil {
		t.Error(err)
		return false
	}
	s := core.New(model, core.Options{Workers: 1})
	defer s.Close()
	for i := range block {
		for j := i + 1; j < len(block); j++ {
			swapped := append([]sparc.Inst(nil), block...)
			swapped[i], swapped[j] = swapped[j], swapped[i]
			if s.VerifyDependences(block, swapped) != nil {
				words[i], words[j] = words[j], words[i]
				return true
			}
		}
	}
	return false
}
