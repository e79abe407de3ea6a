package serve

import (
	"sync"

	"sdem/internal/telemetry"
	"sdem/internal/telemetry/wspan"
)

// traceRing retains the most recent requests' trace state so
// /debug/trace/{id} can replay them after the fact: the virtual-time
// child recorder, the wall-clock span tree, and the decision provenance.
// The ring is the sole owner of completed children — the middleware
// folds only metrics into the root recorder — so evicting an entry
// releases the request's trace memory and the long-running process
// stays bounded.
//
// Entries follow a reserve/seal protocol that closes the pre-existing
// lookup race: the middleware reserves the ID at request START (so a
// client that reads its trace_url the instant the response arrives never
// sees a 404 for a live request — the ring entry predates the response
// bytes), and seals the entry with the immutable payload at completion.
// Readers that find an unsealed entry wait on its done channel; the
// close publishes the payload fields (happens-before), so a reader can
// never observe a partially written entry. Eviction only unlinks an
// entry from the index maps — a reader already holding the pointer still
// gets the sealed payload, never a torn one, and later lookups of the
// evicted ID atomically 404.
type traceRing struct {
	mu      sync.Mutex
	entries []*traceEntry // ring storage, len == capacity
	next    int           // next slot to overwrite
	byID    map[string]*traceEntry
	// byTrace indexes sealed-or-reserved entries by wall trace ID, so
	// exemplar trace_ids from the OpenMetrics exposition resolve at
	// /debug/trace/{id} too.
	byTrace map[string]*traceEntry
}

// traceEntry is one request's retained trace state. id, traceID and done
// are set at reserve time; the payload fields are written exactly once
// by seal, before done is closed, and are immutable afterwards.
type traceEntry struct {
	id      string
	traceID string // wall trace ID, "" when the request was not sampled
	done    chan struct{}

	// Payload, valid after <-done:
	rec    *telemetry.Recorder
	wall   *wspan.Trace
	prov   *provenance
	route  string
	status int
}

// seal publishes the entry's payload and wakes every waiting reader.
// Must be called exactly once; nil entries (ring disabled) no-op.
func (e *traceEntry) seal(rec *telemetry.Recorder, wall *wspan.Trace, prov *provenance, route string, status int) {
	if e == nil {
		return
	}
	e.rec, e.wall, e.prov, e.route, e.status = rec, wall, prov, route, status
	close(e.done)
}

func newTraceRing(size int) *traceRing {
	return &traceRing{
		entries: make([]*traceEntry, size),
		byID:    make(map[string]*traceEntry, size),
		byTrace: make(map[string]*traceEntry, size),
	}
}

// reserve claims a ring slot for a starting request, evicting the oldest
// entry (sealed or not) once the ring is full. traceID may be "" for
// unsampled requests. Returns nil when the ring is disabled (size 0).
func (t *traceRing) reserve(id, traceID string) *traceEntry {
	if len(t.entries) == 0 {
		return nil
	}
	e := &traceEntry{id: id, traceID: traceID, done: make(chan struct{})}
	t.mu.Lock()
	defer t.mu.Unlock()
	if old := t.entries[t.next]; old != nil {
		delete(t.byID, old.id)
		if old.traceID != "" {
			delete(t.byTrace, old.traceID)
		}
	}
	t.entries[t.next] = e
	t.byID[id] = e
	if traceID != "" {
		t.byTrace[traceID] = e
	}
	t.next = (t.next + 1) % len(t.entries)
	return e
}

// get resolves a request ID or a 32-hex wall trace ID to its ring entry.
// The decision is atomic: either the entry is currently linked (the
// caller may then wait on e.done for the sealed payload) or the ID is
// gone and the caller 404s.
func (t *traceRing) get(id string) (*traceEntry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.byID[id]; ok {
		return e, true
	}
	e, ok := t.byTrace[id]
	return e, ok
}
