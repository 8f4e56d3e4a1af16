package phys

// Sharded frame caches in front of the buddy core, modelled on Linux's
// per-CPU pagesets: order-0 allocations are served from a small
// per-shard LIFO cache and only fall back to the globally locked buddy
// allocator to refill or drain a whole batch at a time. This keeps the
// classic-fork hot path (one page-table frame per 2 MiB of address
// space, plus COW data frames at fault time) off the global lock when
// multiple forks run concurrently (the paper's Figure 2 workload).
//
// Lock order: shard.mu → Allocator.mu (the buddy core). A shard lock is
// held across its refill/drain so a batch moves atomically with respect
// to other users of that shard; FlushShards takes each shard in turn.
//
// Accounting stays exact: frames parked in a shard cache are invisible
// to the buddy free lists, so FreeBlocks flushes every shard before
// reporting, and the live-frame counter (`allocated`) is maintained at
// TryAlloc/release time, never by cache movement.

import (
	"runtime"
	"sync"
	"unsafe"

	"repro/internal/failpoint"
	"repro/internal/profile"
	"repro/internal/trace"
)

const (
	// shardBatch is how many frames move between a shard cache and the
	// buddy core per refill or drain (Linux's pageset ->batch).
	shardBatch = 32
	// shardMax is the cache size that triggers a drain (->high).
	shardMax = 2 * shardBatch
	// maxShards caps the shard count on very wide machines.
	maxShards = 64
)

// shard is one frame cache. The pad keeps adjacent shards off the same
// cache line so uncontended shards do not false-share.
type shard struct {
	mu    sync.Mutex
	cache []Frame
	_     [64]byte
}

// newShards sizes the shard array to the next power of two at or above
// GOMAXPROCS, so shard selection is a mask.
func newShards() []shard {
	n := 1
	for n < runtime.GOMAXPROCS(0) && n < maxShards {
		n <<= 1
	}
	return make([]shard, n)
}

// shardFor picks a shard for this call. Go does not expose CPU identity,
// so the shard is a hash of the address of a local in shardFor's own
// frame. That spreads goroutines running at once over the shards —
// their stacks are distinct — which is all the caches need to stay off
// each other's locks. It is not affinity: one goroutine reaches here at
// different stack depths from the alloc and the free paths and may land
// in different shards, and a stack move re-homes it, so a frame freed by
// a goroutine is not promised to its next allocation (only a flush, or a
// single shard, guarantees reuse), and the shard hit rate on a
// multi-core host follows from the call graph rather than from locality.
// A "wrong" shard costs a refill or a contended lock, never correctness.
func (a *Allocator) shardFor() *shard {
	var probe byte
	h := uintptr(unsafe.Pointer(&probe))
	h ^= h >> 17 // mix: stacks are aligned, low bits carry little entropy
	return &a.shards[(h>>3)&uintptr(len(a.shards)-1)]
}

// allocFrame hands out one order-0 frame: shard fast path first,
// batched refill from the buddy core on miss.
func (a *Allocator) allocFrame() Frame {
	s := a.shardFor()
	s.mu.Lock()
	if n := len(s.cache); n > 0 {
		f := s.cache[n-1]
		s.cache = s.cache[:n-1]
		s.mu.Unlock()
		a.prof.Charge(profile.ShardAllocHit, 1)
		if m := a.met.Load(); m.Enabled() {
			m.Alloc.ShardHits.Inc()
		}
		return f
	}
	// Miss: pull a batch from the buddy core while still holding the
	// shard lock (lock order shard → core), so the whole refill is one
	// critical section per shardBatch allocations. An injected refill
	// failure degrades to a single-frame pull — the allocation itself
	// still succeeds (its frame was already reserved against the limit),
	// the cache just stays cold, exactly like a pageset refill that
	// found the free lists fragmented.
	batch := shardBatch
	if fp := a.fail.Load(); fp.Enabled() && fp.Fire(failpoint.PhysShardRefill) {
		batch = 1
	}
	a.mu.Lock()
	f := a.allocBlock(0)
	for i := 0; i < batch-1; i++ {
		s.cache = append(s.cache, a.allocBlock(0))
	}
	a.mu.Unlock()
	s.mu.Unlock()
	a.prof.Charge(profile.ShardRefill, 1)
	if m := a.met.Load(); m.Enabled() {
		m.Alloc.ShardRefills.Inc()
	}
	if t := a.trc.Load(); t.Enabled() {
		t.Instant(trace.KindAllocRefill, trace.StageNone, trace.ActorApp, shardBatch, 0)
	}
	return f
}

// freeFrame returns one order-0 frame to the caller's shard, draining
// the oldest batch to the buddy core when the cache is full. Draining
// from the front keeps recently freed frames at the LIFO top, so a
// free-then-alloc that lands in the same shard reuses the same
// (cache-hot) frame.
func (a *Allocator) freeFrame(f Frame) {
	s := a.shardFor()
	s.mu.Lock()
	s.cache = append(s.cache, f)
	if len(s.cache) < shardMax {
		s.mu.Unlock()
		return
	}
	a.mu.Lock()
	for _, b := range s.cache[:shardBatch] {
		a.freeBlock(b, 0)
	}
	a.mu.Unlock()
	n := copy(s.cache, s.cache[shardBatch:])
	s.cache = s.cache[:n]
	s.mu.Unlock()
	a.prof.Charge(profile.ShardDrain, 1)
	if m := a.met.Load(); m.Enabled() {
		m.Alloc.ShardDrains.Inc()
	}
	if t := a.trc.Load(); t.Enabled() {
		t.Instant(trace.KindAllocDrain, trace.StageNone, trace.ActorApp, shardBatch, 0)
	}
}

// FlushShards drains every shard cache back to the buddy core, making
// FreeBlocks and buddy coalescing exact. Tests and teardown paths call
// it; steady-state allocation never needs to.
func (a *Allocator) FlushShards() {
	for i := range a.shards {
		s := &a.shards[i]
		s.mu.Lock()
		if len(s.cache) > 0 {
			a.mu.Lock()
			for _, f := range s.cache {
				a.freeBlock(f, 0)
			}
			a.mu.Unlock()
			s.cache = s.cache[:0]
		}
		s.mu.Unlock()
	}
}

// ShardCached returns the total number of frames currently parked in
// shard caches (diagnostics and tests).
func (a *Allocator) ShardCached() int {
	total := 0
	for i := range a.shards {
		s := &a.shards[i]
		s.mu.Lock()
		total += len(s.cache)
		s.mu.Unlock()
	}
	return total
}

// Shards returns the number of allocator shards.
func (a *Allocator) Shards() int { return len(a.shards) }
