package core

import (
	"math/rand"
	"testing"

	"eel/internal/sparc"
)

// TestCacheShardCapacitySplit pins the sharding arithmetic: shard count
// is a power of two, every shard holds at least one entry, and the
// per-shard capacities sum exactly to the requested capacity — which is
// what makes Len <= Capacity a hard bound rather than an amortized one.
// get is getInto without an arena or the telemetry record.
func (c *Cache) get(seed uint64, block []sparc.Inst) ([]sparc.Inst, bool) {
	out, _, ok := c.getInto(seed, block, nil)
	return out, ok
}

func TestCacheShardCapacitySplit(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 5, 15, 16, 17, 100, 8192} {
		c := NewCache(capacity)
		if c.Capacity() != capacity {
			t.Fatalf("NewCache(%d).Capacity() = %d", capacity, c.Capacity())
		}
		n := c.Shards()
		if n < 1 || n&(n-1) != 0 {
			t.Fatalf("NewCache(%d): %d shards, want a power of two", capacity, n)
		}
		sum := 0
		for i, sh := range c.ShardStats() {
			if sh.Cap < 1 {
				t.Fatalf("NewCache(%d): shard %d has capacity %d", capacity, i, sh.Cap)
			}
			sum += sh.Cap
		}
		if sum != capacity {
			t.Fatalf("NewCache(%d): shard capacities sum to %d", capacity, sum)
		}
	}
	if c := NewCache(0); c.Capacity() != DefaultCacheCapacity {
		t.Fatalf("NewCache(0).Capacity() = %d, want %d", c.Capacity(), DefaultCacheCapacity)
	}
}

// TestCacheLRUWithinShard drives one shard past its capacity and checks
// that eviction follows recency: a recently touched entry survives, the
// least recently used one goes.
func TestCacheLRUWithinShard(t *testing.T) {
	const seed = 12345
	c := NewCache(64) // 16 shards x 4 entries
	perShard := c.ShardStats()[0].Cap
	if perShard < 2 {
		t.Fatalf("test needs multi-entry shards, got %d", perShard)
	}

	// Collect perShard+1 distinct blocks hashing into the same shard.
	rng := rand.New(rand.NewSource(9))
	want := -1
	var blocks [][]sparc.Inst
	for len(blocks) <= perShard {
		b := randomBlocks(rng, 1)[0]
		k := blockHash(seed, b)
		idx := int((k ^ k>>32) & c.mask)
		if want == -1 {
			want = idx
		}
		if idx != want {
			continue
		}
		if _, ok := c.get(seed, b); ok {
			continue // duplicate block value
		}
		blocks = append(blocks, b)
	}

	// Fill the shard, then refresh blocks[0] so blocks[1] becomes LRU.
	for _, b := range blocks[:perShard] {
		c.put(seed, b, b, nil)
	}
	if _, ok := c.get(seed, blocks[0]); !ok {
		t.Fatal("freshly inserted block missing")
	}
	c.put(seed, blocks[perShard], blocks[perShard], nil)

	if _, ok := c.get(seed, blocks[1]); ok {
		t.Fatal("least recently used entry survived eviction")
	}
	for _, i := range []int{0, 2, perShard} {
		if i >= len(blocks) {
			continue
		}
		if _, ok := c.get(seed, blocks[i]); !ok {
			t.Fatalf("recently used block %d was evicted", i)
		}
	}
	if sh := c.ShardStats()[want]; sh.Len > sh.Cap {
		t.Fatalf("shard %d overfull: %d/%d", want, sh.Len, sh.Cap)
	}
}

// TestCacheSeedsIsolate puts the same block under two seeds and makes
// sure each lookup only sees its own entry (machine/options isolation at
// the hash level; the end-to-end version is
// TestCacheKeysSeparateOptionsAndMachines).
func TestCacheSeedsIsolate(t *testing.T) {
	c := NewCache(8)
	b := randomBlocks(rand.New(rand.NewSource(3)), 1)[0]
	c.put(1, b, b[:1], nil)
	if _, ok := c.get(2, b); ok {
		t.Fatal("seed 2 read seed 1's entry")
	}
	out, ok := c.get(1, b)
	if !ok || len(out) != 1 {
		t.Fatalf("seed 1 lookup failed: ok=%v out=%v", ok, out)
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 1/1", hits, misses)
	}
}
