package core

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"eel/internal/obs"
	"eel/internal/sparc"
	"eel/internal/spawn"
)

// TestSpillRoundTrip schedules a batch, spills the cache, restores it
// into a fresh cache (a restart), and checks that (a) every block is a
// warm hit and (b) the schedules served from the restored cache are
// byte-identical to the originals.
func TestSpillRoundTrip(t *testing.T) {
	model, err := spawn.Load(spawn.UltraSPARC)
	if err != nil {
		t.Fatal(err)
	}
	blocks := randomBlocks(rand.New(rand.NewSource(41)), 60)

	cold := NewCache(0)
	s := New(model, Options{Cache: cold, Workers: -1})
	want, err := s.ScheduleBlocks(blocks)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sched.spill")
	saved, err := cold.SaveSpill(path, "test-rev", 0)
	if err != nil {
		t.Fatal(err)
	}
	if saved != cold.Len() || saved == 0 {
		t.Fatalf("saved %d entries, cache holds %d", saved, cold.Len())
	}

	warm := NewCache(0)
	loaded, err := warm.LoadSpill(path, "test-rev")
	if err != nil {
		t.Fatal(err)
	}
	if loaded != saved {
		t.Fatalf("loaded %d entries, saved %d", loaded, saved)
	}
	s2 := New(model, Options{Cache: warm, Workers: -1})
	got, err := s2.ScheduleBlocks(blocks)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("schedules from restored cache differ from the originals")
	}
	hits, _ := warm.Stats()
	if int(hits) != len(blocks) {
		t.Fatalf("restored cache served %d hits for %d blocks", hits, len(blocks))
	}
}

// TestSpillSurvivesLRUOrder checks the restored cache behaves like the
// saved one under eviction pressure: the recency order round-trips.
func TestSpillPreservesDistinctSeeds(t *testing.T) {
	c := NewCache(32)
	blocks := randomBlocks(rand.New(rand.NewSource(7)), 6)
	for i, b := range blocks {
		c.put(uint64(1+i%2), b, b, nil) // two distinct seeds
	}
	path := filepath.Join(t.TempDir(), "s.spill")
	if _, err := c.SaveSpill(path, "fp", 0); err != nil {
		t.Fatal(err)
	}
	r := NewCache(32)
	if _, err := r.LoadSpill(path, "fp"); err != nil {
		t.Fatal(err)
	}
	for i, b := range blocks {
		if _, ok := r.get(uint64(1+i%2), b); !ok {
			t.Fatalf("block %d lost its seed across the spill", i)
		}
		if _, ok := r.get(99, b); ok {
			t.Fatalf("block %d visible under a foreign seed", i)
		}
	}
}

// TestSpillCorruptionIsColdStart truncates and bit-flips a valid spill
// at every interesting offset: each load must fail with ErrSpillCorrupt
// and restore nothing — a corrupt spill costs warmth, never correctness.
func TestSpillCorruptionIsColdStart(t *testing.T) {
	c := NewCache(0)
	for i, b := range randomBlocks(rand.New(rand.NewSource(3)), 20) {
		c.put(uint64(i+1), b, b, nil)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "good.spill")
	if _, err := c.SaveSpill(path, "fp", 0); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, mutated []byte) {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		fresh := NewCache(0)
		n, err := fresh.LoadSpill(p, "fp")
		if !errors.Is(err, ErrSpillCorrupt) {
			t.Fatalf("%s: err = %v, want ErrSpillCorrupt", name, err)
		}
		if n != 0 || fresh.Len() != 0 {
			t.Fatalf("%s: restored %d entries (len %d) from a corrupt file", name, n, fresh.Len())
		}
	}

	for _, cut := range []int{1, 4, 9, len(raw) / 2, len(raw) - 1} {
		check("trunc.spill", raw[:cut])
	}
	for _, off := range []int{0, 5, 11, len(raw) / 3, len(raw) - 2} {
		flipped := append([]byte(nil), raw...)
		flipped[off] ^= 0x40
		check("flip.spill", flipped)
	}
}

// TestSpillFingerprintMismatchIsSilentCold: a different build fingerprint
// is ordinary invalidation — no error, nothing restored.
func TestSpillFingerprintMismatchIsSilentCold(t *testing.T) {
	c := NewCache(0)
	b := randomBlocks(rand.New(rand.NewSource(5)), 1)[0]
	c.put(1, b, b, nil)
	path := filepath.Join(t.TempDir(), "s.spill")
	if _, err := c.SaveSpill(path, "rev-a", 0); err != nil {
		t.Fatal(err)
	}
	fresh := NewCache(0)
	n, err := fresh.LoadSpill(path, "rev-b")
	if err != nil || n != 0 || fresh.Len() != 0 {
		t.Fatalf("mismatched fingerprint: n=%d len=%d err=%v, want clean cold start", n, fresh.Len(), err)
	}
}

// TestSpillMissingFileIsCold: first boot has no spill; that is not an
// error.
func TestSpillMissingFileIsCold(t *testing.T) {
	c := NewCache(0)
	n, err := c.LoadSpill(filepath.Join(t.TempDir(), "nope.spill"), "fp")
	if n != 0 || err != nil {
		t.Fatalf("missing file: n=%d err=%v", n, err)
	}
}

// TestSpillSizeBound holds the file under maxBytes by dropping the
// coldest entries: with uniform entry sizes, exactly the first k entries
// of the recency-interleaved snapshot order survive.
func TestSpillSizeBound(t *testing.T) {
	c := NewCache(0)
	const nblocks, ninsts = 40, 6
	blocks := make([][]sparc.Inst, nblocks)
	for i := range blocks {
		b := make([]sparc.Inst, ninsts)
		for j := range b {
			b[j] = sparc.NewALUImm(sparc.OpAdd, sparc.G1, sparc.G2, int32(i*ninsts+j))
		}
		blocks[i] = b
		c.put(1, b, b, nil)
	}
	// Touch a few blocks so recency order differs from insertion order.
	for _, b := range blocks[35:] {
		c.get(1, b)
	}
	order := c.snapshotMRU()

	// Header is 12 bytes ("fp" fingerprint), each entry 16+2*6*14 = 184,
	// trailing CRC 4: bound 1900 fits exactly 10 entries.
	path := filepath.Join(t.TempDir(), "s.spill")
	const bound = 1900
	saved, err := c.SaveSpill(path, "fp", bound)
	if err != nil {
		t.Fatal(err)
	}
	if saved != 10 {
		t.Fatalf("saved %d entries, want 10 under a %d-byte bound", saved, bound)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() > bound {
		t.Fatalf("spill file is %d bytes, bound %d (err %v)", fi.Size(), bound, err)
	}
	r := NewCache(0)
	if n, err := r.LoadSpill(path, "fp"); err != nil || n != saved {
		t.Fatalf("restored %d entries (err %v), want %d", n, err, saved)
	}
	for i, e := range order {
		_, ok := r.get(1, e.block)
		if want := i < saved; ok != want {
			t.Fatalf("entry %d of recency order: hit=%v, want %v", i, ok, want)
		}
	}
}

// TestSpillRoundTripKeepsTelemetry: a v2 spill carries every entry's
// telemetry record, so a restarted cache serves hits that copy their
// records — identical counters to the run that made them, and no replay.
func TestSpillRoundTripKeepsTelemetry(t *testing.T) {
	model := spawn.MustLoad(spawn.UltraSPARC)
	blocks := randomBlocks(rand.New(rand.NewSource(43)), 80)
	counters := func(c *Cache) map[string]int64 {
		reg := obs.NewRegistry()
		if _, err := New(model, Options{Cache: c, Workers: -1, Obs: reg}).ScheduleBlocks(blocks); err != nil {
			t.Fatal(err)
		}
		return reg.Counters()
	}
	cold := NewCache(0)
	want := counters(cold)
	path := filepath.Join(t.TempDir(), "sched.spill")
	if _, err := cold.SaveSpill(path, "test-rev", 0); err != nil {
		t.Fatal(err)
	}
	warm := NewCache(0)
	if _, err := warm.LoadSpill(path, "test-rev"); err != nil {
		t.Fatal(err)
	}
	for i, b := range blocks {
		_, wantTel, _ := cold.getInto(cacheSeed(model, Options{}), b, nil)
		_, gotTel, ok := warm.getInto(cacheSeed(model, Options{}), b, nil)
		if !ok || wantTel == nil || !reflect.DeepEqual(gotTel, wantTel) {
			t.Fatalf("block %d: restored record %+v, want %+v", i, gotTel, wantTel)
		}
	}
	got := counters(warm)
	if got["sched.telemetry.replays"] != 0 {
		t.Errorf("restored cache replayed %d blocks, want 0", got["sched.telemetry.replays"])
	}
	delete(want, "sched.ultrasparc.blocks_cached")
	delete(got, "sched.ultrasparc.blocks_cached")
	if !reflect.DeepEqual(withoutReplays(got), withoutReplays(want)) {
		t.Errorf("counters from restored records differ:\n%v\nvs\n%v", got, want)
	}
}
