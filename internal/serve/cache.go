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
// blank — and every return path stamps it for its request, so a cache
// hit is byte-identical to an uncached solve everywhere except those two
// inherently per-request fields. A hit writes the entry's canonical
// body, encoded once on the entry's first hit, with the two fields
// spliced in; a fresh solve encodes its own response and leaves the
// entry unencoded, so entries nobody repeats never hold their bytes.
// Failed computations are never cached: solver errors would be
// deterministic, but budget cancellations are not, and distinguishing
// them here is not worth a poisoned entry.
//
// In front of the canonical key sits the raw index: the exact bytes of a
// /v1/solve or /v1/simulate body, per route, aliasing the entry that
// answers them. A raw hit skips the decode and the canonical key. An
// alias is added only when a canonical lookup hits or coalesces, so a
// body must repeat before it is remembered and a stream of unique bodies
// adds none; while the index is empty a request does not even hash its
// body. Aliases are bounded like the entries (the same per-shard FIFO
// cap), sharded on a hash/maphash of the body — the runtime's AES hash,
// several times cheaper than byte-wise FNV-1a over a body of kilobytes —
// and always compared on the full bytes, never on the hash alone. An
// alias to an entry that has left its shard (evicted, or failed) misses
// and lets go of the entry, so a raw hit only ever serves what a
// canonical lookup would. Only the route and the body reach the alias:
// X-Budget-Ms can only cancel a solve, which is never cached, and
// traceparent touches only the wall trace.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"hash/maphash"
	"sync"
	"sync/atomic"

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
	// gone is set when the entry leaves its shard, evicted or failed; a
	// raw alias still pointing here then misses.
	gone atomic.Bool

	// enc is resp encoded as writeJSON would encode it, built by the
	// first hit; reqAt and urlAt are the offsets of the blank request ID
	// and trace URL values. enc is nil when resp does not encode.
	encOnce      sync.Once
	enc          []byte
	reqAt, urlAt int
}

// encoded returns the entry's canonical body and its two splice offsets,
// encoding it on first use.
func (e *cacheEntry) encoded() ([]byte, int, int) {
	e.encOnce.Do(func() {
		buf, err := json.MarshalIndent(e.resp, "", "  ")
		if err != nil {
			return
		}
		// Request is the first field and TraceURL the last, both blank:
		// the first `"request": "` and the last `"trace_url": "` are
		// theirs whatever the schedule in between holds.
		const reqField, urlField = `"request": "`, `"trace_url": "`
		e.reqAt = bytes.Index(buf, []byte(reqField)) + len(reqField)
		e.urlAt = bytes.LastIndex(buf, []byte(urlField)) + len(urlField)
		e.enc = append(buf, '\n')
	})
	return e.enc, e.reqAt, e.urlAt
}

// stampInto appends the entry's body bound to request id to dst, the
// bytes writeJSON(stamp(resp, id)) writes, and reports false when the
// response does not encode. id must need no JSON escaping (request IDs
// are decimal).
func (e *cacheEntry) stampInto(dst *bytes.Buffer, id string) bool {
	enc, reqAt, urlAt := e.encoded()
	if enc == nil {
		return false
	}
	dst.Grow(len(enc) + 2*len(id) + len(tracePath))
	dst.Write(enc[:reqAt])
	dst.WriteString(id)
	dst.Write(enc[reqAt:urlAt])
	dst.WriteString(tracePath)
	dst.WriteString(id)
	dst.Write(enc[urlAt:])
	return true
}

type cacheShard struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	// order is the FIFO eviction queue. Keys of error-evicted entries may
	// linger; eviction skips keys no longer in entries, and the queue is
	// compacted once it outgrows twice the shard's cap.
	order []string
}

// schedCache is the sharded coalescing response cache.
type schedCache struct {
	shards      [cacheShards]*cacheShard
	perShardCap int
}

// newSchedCache sizes a cache for roughly total entries across shards.
func newSchedCache(total int) *schedCache {
	c := &schedCache{perShardCap: perShard(total)}
	for i := range c.shards {
		c.shards[i] = &cacheShard{entries: make(map[string]*cacheEntry)}
	}
	return c
}

// perShard splits a total bound over the shards, at least one each.
func perShard(total int) int {
	return max(total/cacheShards, 1)
}

// shard returns the shard key lives in.
func (c *schedCache) shard(key string) *cacheShard {
	return c.shards[encode.Fingerprint(key)%cacheShards]
}

// do returns key's entry, computing it via compute on a miss; the entry
// is ready and its resp/code/err final. Followers of an in-flight leader
// wait on the entry until the leader finishes or their own ctx expires; a
// follower abandoned by ctx gets a nil entry and the ctx error (a budget
// shed upstream), never a torn response.
func (c *schedCache) do(ctx context.Context, key string, compute func() (*TaskResponse, int, error)) (*cacheEntry, cacheOutcome, error) {
	shard := c.shard(key)

	shard.mu.Lock()
	if e, ok := shard.entries[key]; ok {
		shard.mu.Unlock()
		select {
		case <-e.ready: // already complete: a plain hit
			return e, cacheHit, nil
		default:
		}
		select {
		case <-e.ready:
			return e, cacheCoalesced, nil
		case <-ctx.Done():
			return nil, cacheCoalesced, ctx.Err()
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
		if v, ok := shard.entries[victim]; ok {
			v.gone.Store(true)
			delete(shard.entries, victim)
		}
	}
	if len(shard.order) > 2*c.perShardCap {
		shard.compact()
	}
	shard.mu.Unlock()

	e.resp, e.code, e.err = compute()
	if e.err != nil {
		shard.mu.Lock()
		if shard.entries[key] == e {
			e.gone.Store(true)
			delete(shard.entries, key)
		}
		shard.mu.Unlock()
	}
	close(e.ready)
	return e, cacheMiss, nil
}

// compact drops the queue's keys that no longer name an entry, keeping
// the last copy of a key that was dropped and added again: failed keys
// leave the entries map but not the queue, so a client repeating a
// failing body would otherwise grow the queue without bound.
func (s *cacheShard) compact() {
	last := make(map[string]int, len(s.entries))
	for i, k := range s.order {
		if _, ok := s.entries[k]; ok {
			last[k] = i
		}
	}
	kept := make([]string, 0, len(last))
	for i, k := range s.order {
		if j, ok := last[k]; ok && j == i {
			kept = append(kept, k)
		}
	}
	s.order = kept
}

// rawKey is one alias: the route's cache op and the exact body bytes.
type rawKey struct {
	op, body string
}

type rawShard struct {
	mu sync.Mutex
	// aliases maps a body to its entry; nil once the entry was found
	// gone. Every key is in order exactly once.
	aliases map[rawKey]*cacheEntry
	order   []rawKey
}

// rawIndex is the raw-body alias index in front of the canonical key.
type rawIndex struct {
	seed        maphash.Seed
	perShardCap int
	// keys counts aliases across shards; zero skips the probe.
	keys   atomic.Int64
	shards [cacheShards]rawShard
}

// newRawIndex sizes an index for roughly total aliases across shards.
func newRawIndex(total int) *rawIndex {
	x := &rawIndex{seed: maphash.MakeSeed(), perShardCap: perShard(total)}
	for i := range x.shards {
		x.shards[i].aliases = make(map[rawKey]*cacheEntry)
	}
	return x
}

func (x *rawIndex) shard(body []byte) *rawShard {
	return &x.shards[maphash.Bytes(x.seed, body)%cacheShards]
}

// get returns the live entry body aliases on op's route, or nil. It
// costs nothing while the index is empty.
//
//sdem:hotpath
func (x *rawIndex) get(op string, body []byte) *cacheEntry {
	if x == nil || x.keys.Load() == 0 {
		return nil
	}
	sh := x.shard(body)
	sh.mu.Lock()
	e := sh.aliases[rawKey{op, string(body)}]
	if e != nil && e.gone.Load() {
		// Let the evicted entry go; the key ages out FIFO.
		sh.aliases[rawKey{op, string(body)}] = nil
		e = nil
	}
	sh.mu.Unlock()
	return e
}

// add aliases body on op's route to e, a ready entry that answered
// without error.
func (x *rawIndex) add(op string, body []byte, e *cacheEntry) {
	if x == nil {
		return
	}
	sh := x.shard(body)
	k := rawKey{op, string(body)}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.aliases[k]; !ok {
		sh.order = append(sh.order, k)
		x.keys.Add(1)
	}
	sh.aliases[k] = e
	for len(sh.order) > x.perShardCap {
		delete(sh.aliases, sh.order[0])
		sh.order[0] = rawKey{} // let the body go with the alias
		sh.order = sh.order[1:]
		x.keys.Add(-1)
	}
}
