package core

import (
	"sync"

	"eel/internal/sparc"
	"eel/internal/spawn"
)

// Cache memoizes per-block scheduling results across Edit passes. The
// key is (machine model, scheduler options, instruction-sequence hash);
// a stored copy of the input sequence is compared on lookup, so a hash
// collision degrades to a miss instead of a wrong schedule. One Cache
// may be shared by schedulers for different machines and options — the
// seed keeps their entries apart — and by concurrent ScheduleBlocks
// workers: the key space is split over power-of-two shards, each with
// its own lock, LRU list and hit/miss counters, so parallel workers
// stop serializing on a single cache mutex.
type Cache struct {
	shards []cacheShard
	mask   uint64
	cap    int
}

// cacheShard is one lock's worth of the cache: a map for lookup and an
// intrusive doubly-linked list for LRU order (head = most recent).
// Capacities are fixed per shard so the global entry count can never
// exceed the cache capacity.
type cacheShard struct {
	mu           sync.Mutex
	cap          int
	entries      map[uint64]*cacheEntry
	head, tail   *cacheEntry
	hits, misses uint64
	_            [24]byte // soften false sharing between neighboring shards
}

type cacheEntry struct {
	key        uint64
	seed       uint64       // key prefix (model + options); kept for the spill
	block      []sparc.Inst // private copy of the input, for collision checks
	out        []sparc.Inst // private copy of the schedule
	tel        *blockTel    // the schedule's telemetry record; nil if none was made
	prev, next *cacheEntry
}

// DefaultCacheCapacity bounds a NewCache(0) cache. Hot executables
// repeat far fewer distinct blocks than this.
const DefaultCacheCapacity = 4096

// defaultCacheShards is sized for the scheduler's worker pool; it drops
// until every shard holds at least one entry on tiny caches.
const defaultCacheShards = 16

// NewCache returns a scheduling-result cache holding at most capacity
// blocks (0 selects DefaultCacheCapacity).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	nshards := defaultCacheShards
	for nshards > 1 && nshards > capacity {
		nshards >>= 1
	}
	c := &Cache{
		shards: make([]cacheShard, nshards),
		mask:   uint64(nshards - 1),
		cap:    capacity,
	}
	for i := range c.shards {
		per := capacity / nshards
		if i < capacity%nshards {
			per++
		}
		c.shards[i].cap = per
		c.shards[i].entries = make(map[uint64]*cacheEntry)
	}
	return c
}

// shardOf maps a block key to its shard. Keys are FNV-1a hashes, so the
// folded low bits are already well distributed.
func (c *Cache) shardOf(k uint64) *cacheShard {
	return &c.shards[(k^k>>32)&c.mask]
}

// Capacity returns the maximum number of blocks the cache can hold.
func (c *Cache) Capacity() int { return c.cap }

// Shards returns the number of independently locked shards.
func (c *Cache) Shards() int { return len(c.shards) }

// Stats returns the number of lookups served from the cache and the
// number that missed, summed over all shards.
func (c *Cache) Stats() (hits, misses uint64) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		hits += sh.hits
		misses += sh.misses
		sh.mu.Unlock()
	}
	return hits, misses
}

// Len returns the number of cached blocks.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// ShardStats describes one shard's occupancy and traffic, for cache
// effectiveness reporting (cmd/eelprof).
type ShardStats struct {
	Len, Cap     int
	Hits, Misses uint64
}

// ShardStats returns per-shard occupancy and hit/miss counts.
func (c *Cache) ShardStats() []ShardStats {
	out := make([]ShardStats, len(c.shards))
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		out[i] = ShardStats{Len: len(sh.entries), Cap: sh.cap, Hits: sh.hits, Misses: sh.misses}
		sh.mu.Unlock()
	}
	return out
}

// getInto returns a copy of block's cached schedule, carved from the
// caller's arena (nil falls back to a private allocation) so a warmed
// worker's cache hits cost no allocations, and the entry's telemetry
// record (nil when it was stored without one), which is immutable and
// shared.
func (c *Cache) getInto(seed uint64, block []sparc.Inst, arena *instArena) ([]sparc.Inst, *blockTel, bool) {
	k := blockHash(seed, block)
	sh := c.shardOf(k)
	sh.mu.Lock()
	e, ok := sh.entries[k]
	if !ok || !blocksEqual(e.block, block) {
		sh.misses++
		sh.mu.Unlock()
		return nil, nil, false
	}
	sh.hits++
	sh.moveToFront(e)
	// Entries are immutable once stored; hand the caller its own copy so
	// later in-place edits cannot corrupt the cache.
	var out []sparc.Inst
	if arena != nil {
		out = append(arena.take(len(e.out)), e.out...)
	} else {
		out = append([]sparc.Inst(nil), e.out...)
	}
	tel := e.tel
	sh.mu.Unlock()
	return out, tel, true
}

// put stores private copies of block, its schedule and (when non-nil)
// the schedule's telemetry record.
func (c *Cache) put(seed uint64, block, out []sparc.Inst, tel *blockTel) {
	k := blockHash(seed, block)
	blockCopy := append([]sparc.Inst(nil), block...)
	outCopy := append([]sparc.Inst(nil), out...)
	if tel != nil {
		tel = &blockTel{tel.telFixed, append([]uint32(nil), tel.Unit...)}
	}
	sh := c.shardOf(k)
	sh.mu.Lock()
	if e, ok := sh.entries[k]; ok {
		// Same key, possibly a colliding block: last write wins, like the
		// unsharded map it replaces. Output never depends on cache content.
		e.seed, e.block, e.out, e.tel = seed, blockCopy, outCopy, tel
		sh.moveToFront(e)
		sh.mu.Unlock()
		return
	}
	if len(sh.entries) >= sh.cap {
		sh.evictOldest()
	}
	e := &cacheEntry{key: k, seed: seed, block: blockCopy, out: outCopy, tel: tel}
	sh.entries[k] = e
	sh.pushFront(e)
	sh.mu.Unlock()
}

// pushFront links e as the most recently used entry. Callers hold mu.
func (sh *cacheShard) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

// moveToFront marks e as the most recently used entry. Callers hold mu.
func (sh *cacheShard) moveToFront(e *cacheEntry) {
	if sh.head == e {
		return
	}
	// Unlink (e is not the head, so e.prev != nil).
	e.prev.next = e.next
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev = nil
	e.next = sh.head
	sh.head.prev = e
	sh.head = e
}

// evictOldest removes the least recently used entry. Callers hold mu and
// guarantee the shard is non-empty.
func (sh *cacheShard) evictOldest() {
	victim := sh.tail
	delete(sh.entries, victim.key)
	sh.tail = victim.prev
	if sh.tail != nil {
		sh.tail.next = nil
	} else {
		sh.head = nil
	}
	victim.prev, victim.next = nil, nil
}

func blocksEqual(a, b []sparc.Inst) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// cacheSeed folds the machine name and the options that change schedules
// into a key prefix. The result is never 0 (0 marks an uncacheable
// scheduler).
func cacheSeed(model *spawn.Model, opts Options) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(model.Machine); i++ {
		h ^= uint64(model.Machine[i])
		h *= fnvPrime
	}
	var bits uint64 = 1
	if opts.ConservativeMem {
		bits |= 2
	}
	if opts.ChainFirst {
		bits |= 4
	}
	// EngineOptimal can emit different (better) schedules, so mixing its
	// entries with greedy ones would be wrong. Bits 8 and 16 marked the
	// retired reference oracle and engine; they stay unused so every
	// remaining configuration keeps its key and old spill files load warm.
	if opts.Engine == EngineOptimal {
		bits |= 32
	}
	h ^= bits
	h *= fnvPrime
	if opts.Engine == EngineOptimal {
		// Search-effort knobs decide which blocks get certified optimal
		// schedules, so they are part of the key: a warm cache can never
		// change what a given configuration emits.
		h ^= uint64(uint32(opts.optimalBudget()))
		h *= fnvPrime
		h ^= uint64(uint32(opts.optimalMaxInsts()))
		h *= fnvPrime
	}
	if h == 0 {
		h = 1
	}
	return h
}

// blockHash is FNV-1a over every field of every instruction.
func blockHash(seed uint64, block []sparc.Inst) uint64 {
	h := seed
	mix := func(v uint64) {
		h ^= v
		h *= fnvPrime
	}
	for _, in := range block {
		mix(uint64(in.Op))
		mix(uint64(in.Rd) | uint64(in.Rs1)<<8 | uint64(in.Rs2)<<16 | uint64(in.Cond)<<24)
		mix(uint64(uint32(in.Imm)))
		mix(uint64(uint32(in.Disp)))
		var flags uint64
		if in.UseImm {
			flags |= 1
		}
		if in.Annul {
			flags |= 2
		}
		if in.Instrumented {
			flags |= 4
		}
		mix(flags)
	}
	mix(uint64(len(block)))
	return h
}
