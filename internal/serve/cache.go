// Coalesced schedule cache: identical or hot task sets cost one solve.
//
// Keys are canonical fingerprints (internal/encode.CanonicalKey), so two
// requests that spell the same task multiset in different JSON order
// share an entry. The cache is sharded 16 ways on the key's FNV-1a
// fingerprint to keep lock contention off the request path, evicts FIFO
// per shard, and coalesces concurrent identical requests singleflight-
// style: the first becomes the leader and computes, the rest park on the
// entry's ready channel and reuse the leader's response verbatim.
//
// Cached entries hold the canonical response — request ID and trace URL
// blank — and every return path stamps a fresh shallow copy, so a cache
// hit is byte-identical to an uncached solve everywhere except those two
// inherently per-request fields. Failed computations are never cached:
// solver errors would be deterministic, but budget cancellations are
// not, and distinguishing them here is not worth a poisoned entry.
package serve

import (
	"context"
	"sync"

	"sdem/internal/encode"
)

// cacheOutcome is how a request's solve was satisfied, the `result`
// label of the sdem.serve.cache counter.
type cacheOutcome string

const (
	// cacheMiss: this request led the computation.
	cacheMiss cacheOutcome = "miss"
	// cacheHit: a completed entry answered instantly.
	cacheHit cacheOutcome = "hit"
	// cacheCoalesced: an in-flight leader was computing the same key; the
	// request waited for it instead of solving again.
	cacheCoalesced cacheOutcome = "coalesced"
)

const cacheShards = 16

// cacheEntry is one key's slot. ready is closed once resp/code/err are
// written; the channel close publishes the fields to waiters.
type cacheEntry struct {
	ready chan struct{}
	resp  *TaskResponse
	code  int
	err   error
}

type cacheShard struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	// order is the FIFO eviction queue. Keys of error-evicted entries may
	// linger; eviction skips keys no longer in entries.
	order []string
}

// schedCache is the sharded coalescing response cache.
type schedCache struct {
	shards      [cacheShards]*cacheShard
	perShardCap int
}

// newSchedCache sizes a cache for roughly total entries across shards.
func newSchedCache(total int) *schedCache {
	per := total / cacheShards
	if per < 1 {
		per = 1
	}
	c := &schedCache{perShardCap: per}
	for i := range c.shards {
		c.shards[i] = &cacheShard{entries: make(map[string]*cacheEntry)}
	}
	return c
}

// do returns the cached response for key, computing it via compute on a
// miss. Followers of an in-flight leader wait on the entry until the
// leader finishes or their own ctx expires; a follower abandoned by ctx
// reports the ctx error (mapped to a budget shed upstream), never a torn
// response.
func (c *schedCache) do(ctx context.Context, key string, compute func() (*TaskResponse, int, error)) (*TaskResponse, int, error, cacheOutcome) {
	shard := c.shards[encode.Fingerprint(key)%cacheShards]

	shard.mu.Lock()
	if e, ok := shard.entries[key]; ok {
		shard.mu.Unlock()
		select {
		case <-e.ready: // already complete: a plain hit
			return e.resp, e.code, e.err, cacheHit
		default:
		}
		select {
		case <-e.ready:
			return e.resp, e.code, e.err, cacheCoalesced
		case <-ctx.Done():
			return nil, 0, ctx.Err(), cacheCoalesced
		}
	}
	e := &cacheEntry{ready: make(chan struct{})}
	shard.entries[key] = e
	shard.order = append(shard.order, key)
	for len(shard.entries) > c.perShardCap && len(shard.order) > 0 {
		victim := shard.order[0]
		// Clear the slot: the queue's backing array would otherwise keep
		// every evicted key alive until the next reallocation.
		shard.order[0] = ""
		shard.order = shard.order[1:]
		if victim == key {
			// Never evict the entry being computed right now; re-queue it
			// behind the survivors instead.
			shard.order = append(shard.order, key)
			continue
		}
		delete(shard.entries, victim)
	}
	shard.mu.Unlock()

	resp, code, err := compute()
	e.resp, e.code, e.err = resp, code, err
	if err != nil {
		shard.mu.Lock()
		if shard.entries[key] == e {
			delete(shard.entries, key)
		}
		shard.mu.Unlock()
	}
	close(e.ready)
	return resp, code, err, cacheMiss
}
