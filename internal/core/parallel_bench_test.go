package core

import (
	"fmt"
	"math/rand"
	"testing"

	"eel/internal/sparc"
	"eel/internal/spawn"
)

// BenchmarkScheduleBlocks compares the sequential path with the worker
// pool on a multi-block workload. On a multi-core machine the parallel
// variants show near-linear speedup (blocks are independent); on a
// single-core runner they match the sequential path to within pool
// overhead. The CI benchmark-smoke job records both.
func BenchmarkScheduleBlocks(b *testing.B) {
	model := spawn.MustLoad(spawn.UltraSPARC)
	blocks := randomBlocks(rand.New(rand.NewSource(1)), 2000)
	for _, oracle := range []schedulerVariant{{"fast", New}, {"reference", NewStateScheduler}} {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("oracle=%s/workers=%d", oracle.name, workers), func(b *testing.B) {
				s := oracle.mk(model, Options{Workers: workers})
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := s.ScheduleBlocks(blocks); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkScheduleBlocksScaling is the multicore scaling rig: the fast
// engine and fast oracle only (the line-rate configuration), swept
// across worker counts on one shared workload, with output verified
// byte-identical to the single-worker run every iteration batch. CI
// records it as the `sched-scaling` series in BENCH_sched.json; the
// recorded manifest's gomaxprocs/numcpu stamps say how many cores the
// sweep actually had, so cross-runner comparisons of the series are
// flagged instead of gated.
func BenchmarkScheduleBlocksScaling(b *testing.B) {
	model := spawn.MustLoad(spawn.UltraSPARC)
	blocks := randomBlocks(rand.New(rand.NewSource(1)), 2000)
	ref, err := New(model, Options{Workers: 1}).ScheduleBlocks(blocks)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			s := New(model, Options{Workers: workers})
			defer s.Close()
			b.ReportAllocs()
			var out [][]sparc.Inst
			for i := 0; i < b.N; i++ {
				if out, err = s.ScheduleBlocks(blocks); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			for i := range out {
				if !blocksEqual(out[i], ref[i]) {
					b.Fatalf("workers=%d block %d differs from single-worker schedule", workers, i)
				}
			}
		})
	}
}

// BenchmarkScheduleBlocksReferenceEngine pins the original pairwise
// builder and full-rescan ready loop, the baseline the fast engine's
// speedup in BENCH_sched.json is measured against. Kept as a separate
// benchmark so the BenchmarkScheduleBlocks series stays comparable
// across the perf trajectory.
func BenchmarkScheduleBlocksReferenceEngine(b *testing.B) {
	model := spawn.MustLoad(spawn.UltraSPARC)
	blocks := randomBlocks(rand.New(rand.NewSource(1)), 2000)
	s := UseReferenceEngine(New(model, Options{Workers: 1}))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.ScheduleBlocks(blocks); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleBlocksCached measures the hot-block cache: the same
// executable edited repeatedly reschedules nothing.
func BenchmarkScheduleBlocksCached(b *testing.B) {
	model := spawn.MustLoad(spawn.UltraSPARC)
	blocks := randomBlocks(rand.New(rand.NewSource(1)), 2000)
	s := New(model, Options{Workers: 1, Cache: NewCache(8192)})
	if _, err := s.ScheduleBlocks(blocks); err != nil { // warm
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ScheduleBlocks(blocks); err != nil {
			b.Fatal(err)
		}
	}
}
