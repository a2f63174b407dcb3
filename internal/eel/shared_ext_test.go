package eel_test

import (
	"fmt"
	"sync"
	"testing"

	"eel/internal/core"
	"eel/internal/eel"
	"eel/internal/exe"
	"eel/internal/spawn"
	"eel/internal/workload"
)

// buildWorkloadExe generates a deterministic synthetic benchmark small
// enough for a test but with enough blocks to exercise the scheduler.
func buildWorkloadExe(t *testing.T) *exe.Exe {
	t.Helper()
	b, ok := workload.ByName("130.li", spawn.UltraSPARC)
	if !ok {
		t.Fatal("130.li missing from the suite")
	}
	x, err := workload.Generate(b, workload.Config{
		Machine:         spawn.UltraSPARC,
		DynamicInsts:    1 << 14,
		Seed:            7,
		SkipCalibration: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// TestConcurrentEditsOnSharedEditor hammers one Editor (and so one
// scheduler memo and one schedule cache) from many goroutines — the
// daemon's steady state — and checks every concurrent edit is
// byte-identical to a sequential reference pass. Run under -race in CI.
func TestConcurrentEditsOnSharedEditor(t *testing.T) {
	x := buildWorkloadExe(t)
	model, err := spawn.Load(spawn.UltraSPARC)
	if err != nil {
		t.Fatal(err)
	}
	shared := core.NewCache(0)
	ed, err := eel.OpenShared(x, shared)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ed.Reschedule(model, core.Options{Workers: -1})
	if err != nil {
		t.Fatal(err)
	}

	const goroutines, rounds = 8, 4
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				got, err := ed.Reschedule(model, core.Options{Workers: 2})
				if err != nil {
					errs <- fmt.Errorf("goroutine %d round %d: %w", g, r, err)
					return
				}
				if len(got.Text) != len(want.Text) {
					errs <- fmt.Errorf("goroutine %d round %d: %d words, want %d", g, r, len(got.Text), len(want.Text))
					return
				}
				for i := range got.Text {
					if got.Text[i] != want.Text[i] {
						errs <- fmt.Errorf("goroutine %d round %d: word %d differs", g, r, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if hits, misses := shared.Stats(); hits == 0 || misses == 0 {
		t.Fatalf("shared cache saw %d hits / %d misses; expected both (warm repeats, cold first pass)", hits, misses)
	}
}

// TestSharedCacheAcrossEditors opens two Editors over the same image
// against one shared cache: the second editor's pass must be served
// almost entirely from the first one's entries.
func TestSharedCacheAcrossEditors(t *testing.T) {
	x := buildWorkloadExe(t)
	model, err := spawn.Load(spawn.UltraSPARC)
	if err != nil {
		t.Fatal(err)
	}
	shared := core.NewCache(0)
	ed1, err := eel.OpenShared(x, shared)
	if err != nil {
		t.Fatal(err)
	}
	out1, err := ed1.Reschedule(model, core.Options{Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	_, coldMisses := shared.Stats()

	ed2, err := eel.OpenShared(x, shared)
	if err != nil {
		t.Fatal(err)
	}
	out2, err := ed2.Reschedule(model, core.Options{Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := shared.Stats()
	if misses != coldMisses {
		t.Fatalf("second editor missed %d times; the shared cache should have served it", misses-coldMisses)
	}
	if hits == 0 {
		t.Fatal("second editor recorded no cache hits")
	}
	for i := range out1.Text {
		if out1.Text[i] != out2.Text[i] {
			t.Fatalf("editors disagree at word %d", i)
		}
	}
}

// TestSchedulerMemoKeysIsolate makes sure memoized schedulers do not
// bleed configuration: conservative and relaxed passes through the same
// Editor still differ where they should, and repeating each is stable.
func TestSchedulerMemoKeysIsolate(t *testing.T) {
	x := buildWorkloadExe(t)
	model, err := spawn.Load(spawn.UltraSPARC)
	if err != nil {
		t.Fatal(err)
	}
	ed, err := eel.Open(x)
	if err != nil {
		t.Fatal(err)
	}
	run := func(opts core.Options) []uint32 {
		t.Helper()
		out, err := ed.Reschedule(model, opts)
		if err != nil {
			t.Fatal(err)
		}
		return out.Text
	}
	fast := run(core.Options{})
	fast2 := run(core.Options{})
	if fmt.Sprint(fast) != fmt.Sprint(fast2) {
		t.Fatal("repeated identical pass changed output")
	}
}

// TestConcurrentEditsSharePersistentPool is the daemon's steady state
// under the persistent worker pool: many goroutines drive instrumenting
// Edits through one shared Editor, whose scheduler memo hands them all
// the same Scheduler and therefore the same pool of resident worker
// goroutines. Midway through, the Editor is Closed — the daemon LRU's
// eviction path — which shuts the pool under the in-flight edits; those
// must degrade to caller-inline scheduling, not fail, and every output
// (before, during, after the Close) must stay byte-identical. Run under
// -race in CI.
func TestConcurrentEditsSharePersistentPool(t *testing.T) {
	x := buildWorkloadExe(t)
	model, err := spawn.Load(spawn.UltraSPARC)
	if err != nil {
		t.Fatal(err)
	}
	ed, err := eel.OpenShared(x, core.NewCache(0))
	if err != nil {
		t.Fatal(err)
	}
	opts := eel.Options{Machine: model, Schedule: true, Sched: core.Options{Workers: 4}}
	want, err := ed.Edit(&staticAdder{}, opts)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines, rounds = 8, 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds)
	var closeOnce sync.Once
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if g == 0 && r == rounds/2 {
					closeOnce.Do(ed.Close)
				}
				got, err := ed.Edit(&staticAdder{}, opts)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d round %d: %w", g, r, err)
					return
				}
				for i := range got.Text {
					if got.Text[i] != want.Text[i] {
						errs <- fmt.Errorf("goroutine %d round %d: word %d differs", g, r, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
