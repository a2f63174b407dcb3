package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"eel/internal/pipe"
	"eel/internal/sparc"
	"eel/internal/spawn"
)

// randomBlocks builds a mixed workload: straight-line blocks, blocks
// ending in a CTI + delay slot, instrumented memory traffic.
func randomBlocks(r *rand.Rand, nblocks int) [][]sparc.Inst {
	regs := []sparc.Reg{sparc.G1, sparc.G2, sparc.G3, sparc.G4, sparc.O0, sparc.O1, sparc.L0, sparc.L1}
	blocks := make([][]sparc.Inst, nblocks)
	for bi := range blocks {
		n := 2 + r.Intn(12)
		block := make([]sparc.Inst, 0, n+2)
		for i := 0; i < n; i++ {
			switch r.Intn(6) {
			case 0:
				block = append(block, sparc.NewLoad(sparc.OpLd, regs[r.Intn(4)], regs[4+r.Intn(4)], int32(4*r.Intn(32))))
			case 1:
				block = append(block, sparc.NewStore(sparc.OpSt, regs[r.Intn(4)], regs[4+r.Intn(4)], int32(4*r.Intn(32))))
			case 2:
				block = append(block, sparc.NewSethi(regs[r.Intn(len(regs))], int32(r.Intn(1<<20))))
			case 3:
				ld := sparc.NewLoad(sparc.OpLd, regs[r.Intn(4)], regs[4+r.Intn(4)], int32(4*r.Intn(32)))
				ld.Instrumented = true
				block = append(block, ld)
			default:
				block = append(block, sparc.NewALU(sparc.OpAdd, regs[r.Intn(len(regs))], regs[r.Intn(len(regs))], regs[r.Intn(len(regs))]))
			}
		}
		if r.Intn(2) == 0 {
			block = append(block,
				sparc.NewALUImm(sparc.OpSubcc, sparc.G0, sparc.G1, int32(r.Intn(16))),
				sparc.NewBranch(sparc.CondNE, -int32(len(block))-1),
				sparc.NewNop())
		}
		blocks[bi] = block
	}
	return blocks
}

// encodeBlocks flattens a schedule to its byte-exact instruction words.
func encodeBlocks(t *testing.T, blocks [][]sparc.Inst) []uint32 {
	t.Helper()
	var words []uint32
	for _, b := range blocks {
		for _, inst := range b {
			words = append(words, sparc.MustEncode(inst))
		}
	}
	return words
}

var allMachines = []spawn.Machine{spawn.SuperSPARC, spawn.UltraSPARC, spawn.HyperSPARC}

// TestScheduleBlocksDeterministic is the determinism gate: the parallel
// schedule must be byte-identical to the sequential one on every machine
// description and for every worker count, including Workers: 1.
func TestScheduleBlocksDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	blocks := randomBlocks(r, 200)
	for _, machine := range allMachines {
		model := spawn.MustLoad(machine)

		// Reference: one block at a time through the sequential API.
		ref := New(model, Options{})
		want := make([][]sparc.Inst, len(blocks))
		for i, b := range blocks {
			out, err := ref.ScheduleBlock(b)
			if err != nil {
				t.Fatalf("%s: block %d: %v", machine, i, err)
			}
			want[i] = out
		}
		wantWords := encodeBlocks(t, want)

		for _, workers := range []int{1, 2, 4, 8, 0} {
			s := New(model, Options{Workers: workers})
			got, err := s.ScheduleBlocks(blocks)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", machine, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s workers=%d: parallel schedule differs from sequential", machine, workers)
			}
			if !reflect.DeepEqual(encodeBlocks(t, got), wantWords) {
				t.Fatalf("%s workers=%d: encoded bytes differ", machine, workers)
			}
		}
	}
}

func TestScheduleBlocksSequentialFallback(t *testing.T) {
	// NewWith holds one unreplicable oracle: ScheduleBlocks must still
	// work (sequentially) and agree with the default path.
	model := spawn.MustLoad(spawn.UltraSPARC)
	blocks := randomBlocks(rand.New(rand.NewSource(7)), 40)
	s := NewWith(pipe.NewState(model), model, Options{Workers: 8})
	got, err := s.ScheduleBlocks(blocks)
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(model, Options{Workers: 1}).ScheduleBlocks(blocks)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("NewWith fallback schedule differs from default scheduler")
	}
}

func TestScheduleBlocksFactoryOracle(t *testing.T) {
	// NewWithFactory with the standard oracle must match New exactly.
	model := spawn.MustLoad(spawn.HyperSPARC)
	blocks := randomBlocks(rand.New(rand.NewSource(9)), 60)
	s := NewWithFactory(func() Pipeline { return pipe.NewState(model) }, model, Options{Workers: 4})
	got, err := s.ScheduleBlocks(blocks)
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(model, Options{Workers: 1}).ScheduleBlocks(blocks)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("factory-oracle schedule differs from default scheduler")
	}
}

func TestScheduleBlocksReportsLowestErrorIndex(t *testing.T) {
	model := spawn.MustLoad(spawn.UltraSPARC)
	blocks := randomBlocks(rand.New(rand.NewSource(3)), 24)
	// A CTI with no delay slot is a structural error the scheduler rejects.
	bad := []sparc.Inst{
		sparc.NewALUImm(sparc.OpAdd, sparc.G1, sparc.G2, 1),
		sparc.NewBranch(sparc.CondNE, -1),
	}
	blocks[5] = bad
	blocks[17] = bad
	// The lowest-indexed failing block must win under every pool shape —
	// sequential, odd sizes that leave stragglers, GOMAXPROCS — and under
	// both engines, so the error a user sees never depends on timing.
	var want string
	for _, engine := range []string{"fast", "reference"} {
		for _, workers := range []int{1, 2, 3, 4, 8, 0} {
			s := New(model, Options{Workers: workers})
			if engine == "reference" {
				UseReferenceEngine(s)
			}
			_, err := s.ScheduleBlocks(blocks)
			if err == nil {
				t.Fatalf("engine=%s workers=%d: bad block not rejected", engine, workers)
			}
			if !strings.Contains(err.Error(), "block 5") {
				t.Fatalf("engine=%s workers=%d: error does not name the lowest failing block: %v", engine, workers, err)
			}
			if want == "" {
				want = err.Error()
			} else if err.Error() != want {
				t.Fatalf("engine=%s workers=%d: error differs across configurations:\n%q\nvs\n%q", engine, workers, err, want)
			}
		}
	}
}

func TestScheduleBlocksNoReorder(t *testing.T) {
	model := spawn.MustLoad(spawn.UltraSPARC)
	blocks := randomBlocks(rand.New(rand.NewSource(5)), 10)
	s := New(model, Options{NoReorder: true, Workers: 8})
	got, err := s.ScheduleBlocks(blocks)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, blocks) {
		t.Fatal("NoReorder changed a block")
	}
}

func TestCacheHitsAndDeterminism(t *testing.T) {
	model := spawn.MustLoad(spawn.UltraSPARC)
	blocks := randomBlocks(rand.New(rand.NewSource(21)), 80)
	cache := NewCache(0)

	uncached, err := New(model, Options{}).ScheduleBlocks(blocks)
	if err != nil {
		t.Fatal(err)
	}
	s := New(model, Options{Cache: cache})
	first, err := s.ScheduleBlocks(blocks)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := cache.Stats()
	if hits != 0 || misses == 0 {
		t.Fatalf("cold cache stats: hits=%d misses=%d", hits, misses)
	}
	second, err := s.ScheduleBlocks(blocks)
	if err != nil {
		t.Fatal(err)
	}
	hits, _ = cache.Stats()
	if hits == 0 {
		t.Fatal("warm pass recorded no cache hits")
	}
	if !reflect.DeepEqual(first, uncached) || !reflect.DeepEqual(second, uncached) {
		t.Fatal("cached schedule differs from uncached schedule")
	}
	if cache.Len() == 0 {
		t.Fatal("cache is empty after scheduling")
	}
}

func TestCacheKeysSeparateOptionsAndMachines(t *testing.T) {
	// A shared cache must never serve a schedule computed under different
	// options or a different machine. The ConservativeMem ablation yields
	// a different schedule for this block, which would surface as
	// corruption if keys collided.
	cache := NewCache(0)
	origStore := sparc.NewStore(sparc.OpSt, sparc.G1, sparc.O0, 0)
	slow := sparc.NewLoad(sparc.OpLd, sparc.G1, sparc.O2, 0)
	instLd := sparc.NewLoad(sparc.OpLd, sparc.G3, sparc.G4, 0)
	instLd.Instrumented = true
	block := []sparc.Inst{slow, origStore, instLd}

	model := spawn.MustLoad(spawn.UltraSPARC)
	relaxed := New(model, Options{Cache: cache})
	conservative := New(model, Options{ConservativeMem: true, Cache: cache})

	wantRelaxed, err := New(model, Options{}).ScheduleBlock(block)
	if err != nil {
		t.Fatal(err)
	}
	wantConservative, err := New(model, Options{ConservativeMem: true}).ScheduleBlock(block)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(wantRelaxed, wantConservative) {
		t.Fatal("test block does not distinguish the option")
	}
	for i := 0; i < 2; i++ { // second round hits the cache
		got, err := relaxed.ScheduleBlock(block)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, wantRelaxed) {
			t.Fatalf("round %d: relaxed schedule wrong: %v", i, got)
		}
		got, err = conservative.ScheduleBlock(block)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, wantConservative) {
			t.Fatalf("round %d: conservative schedule served a cross-option entry: %v", i, got)
		}
	}

	// Different machine, same block: must compute its own entry, not
	// reuse UltraSPARC's.
	ss := spawn.MustLoad(spawn.SuperSPARC)
	want, err := New(ss, Options{}).ScheduleBlock(block)
	if err != nil {
		t.Fatal(err)
	}
	got, err := New(ss, Options{Cache: cache}).ScheduleBlock(block)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("cross-machine cache contamination")
	}
}

func TestCacheEvictionBounded(t *testing.T) {
	model := spawn.MustLoad(spawn.UltraSPARC)
	cache := NewCache(16)
	s := New(model, Options{Cache: cache})
	blocks := randomBlocks(rand.New(rand.NewSource(31)), 200)
	if _, err := s.ScheduleBlocks(blocks); err != nil {
		t.Fatal(err)
	}
	if n := cache.Len(); n > 16 {
		t.Fatalf("cache grew past its capacity: %d entries", n)
	}
}

// TestScheduleBlocksConcurrentCallers exercises one scheduler from many
// goroutines at once (the race job runs this under -race).
func TestScheduleBlocksConcurrentCallers(t *testing.T) {
	model := spawn.MustLoad(spawn.UltraSPARC)
	blocks := randomBlocks(rand.New(rand.NewSource(77)), 64)
	s := New(model, Options{Workers: 4, Cache: NewCache(0)})
	want, err := New(model, Options{Workers: 1}).ScheduleBlocks(blocks)
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		go func() {
			got, err := s.ScheduleBlocks(blocks)
			if err == nil && !reflect.DeepEqual(got, want) {
				err = fmt.Errorf("concurrent ScheduleBlocks diverged")
			}
			errs <- err
		}()
	}
	for c := 0; c < callers; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// panickyPipeline is the reference oracle, except that it panics on any
// instruction writing %g7 (randomBlocks never does).
type panickyPipeline struct{ *pipe.State }

func (p panickyPipeline) check(inst sparc.Inst) {
	if inst.Rd == sparc.G7 {
		panic("marked instruction")
	}
}

func (p panickyPipeline) Stalls(inst sparc.Inst) (int, error) {
	p.check(inst)
	return p.State.Stalls(inst)
}

func (p panickyPipeline) Issue(inst sparc.Inst) (int, int64, error) {
	p.check(inst)
	return p.State.Issue(inst)
}

// TestScheduleBlocksContainsPanics: a panic in the oracle, on the pool's
// helper goroutine or on the calling one, fails the call with an error
// naming the lowest panicking block instead of killing the process, and
// the scheduler keeps working afterwards.
func TestScheduleBlocksContainsPanics(t *testing.T) {
	model := spawn.MustLoad(spawn.UltraSPARC)
	s := NewWithFactory(func() Pipeline { return panickyPipeline{pipe.NewState(model)} },
		model, Options{Workers: 2})
	defer s.Close()
	clean := randomBlocks(rand.New(rand.NewSource(31)), 40)
	marked := append([][]sparc.Inst(nil), clean...)
	bad := []sparc.Inst{sparc.NewALUImm(sparc.OpAdd, sparc.G7, sparc.G1, 1), sparc.NewNop()}
	marked[7], marked[19], marked[33] = bad, bad, bad
	// Both workers claim blocks from a shared counter, so repeated calls
	// land the marked blocks on the helper as well as the caller.
	for i := 0; i < 20; i++ {
		_, err := s.ScheduleBlocks(marked)
		if !errors.Is(err, ErrPanic) || !strings.Contains(err.Error(), "block 7:") {
			t.Fatalf("call %d: err = %v, want a panic error naming block 7", i, err)
		}
	}
	want, err := New(model, Options{Workers: 1}).ScheduleBlocks(clean)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.ScheduleBlocks(clean)
	if err != nil {
		t.Fatalf("call after panics: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("schedule after contained panics differs from a fresh scheduler's")
	}
}
