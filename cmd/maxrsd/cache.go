package main

import (
	"container/list"
	"sync"
)

// resultCache is a concurrency-safe LRU of solved query responses keyed by
// (dataset generation, algorithm, query parameters). Entries for deleted
// datasets are never hit again (the generation changes) and age out of the
// LRU naturally. A capacity ≤ 0 disables caching.
//
// On top of the exact-key lookup the cache answers semantic containment
// hits: a cached TopK(k') response for a (generation, w, h) family serves
// MaxRS and any TopK(k ≤ k') of the same family — the greedy TopK rounds
// are prefix-stable, so the donor's first k results ARE the TopK(k)
// answer, and its first result IS the MaxRS answer (DESIGN.md §12.6).
// A donor that ran dry (fewer results than its requested k) serves every
// larger k too. Generations partition families, so reuse never crosses a
// dataset reload; failed queries are never stored at all.
//
// Mutable datasets add a second freshness axis, the sequence fence:
// every entry records the dataset's mutation sequence number at solve
// time, and lookups (exact and containment alike) hit only at the same
// sequence — a mutated dataset is never answered from a pre-mutation
// result, even when the mutation could not have changed it (the optimum
// may have MOVED somewhere the cached regions never saw; only the
// engine's delta path can prove it didn't). A stale entry stays in the
// LRU until its next access re-executes it (cheap through the engine's
// combined base+delta path) and re-puts it fresh, or until it ages out.
type resultCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used; values are *cacheEntry
	byKey map[string]*list.Element
	// families indexes the best donor entry per (generation, w, h)
	// family: among those solved at the latest mutation sequence, the
	// exhausted donor if any, else the largest-k one.
	families map[string]*list.Element

	hits, misses, reuseHits uint64
}

type cacheEntry struct {
	key string
	val queryResponse
	// family/k/exhausted describe the entry's containment-donor role:
	// family is empty for entries that can never donate (maxcrs, and
	// rect queries with nothing to give), k is the request's k (1 for
	// maxrs), exhausted marks a TopK that returned fewer than k results
	// — the dataset ran dry, so the result list is complete for every
	// larger k as well.
	family    string
	k         int
	exhausted bool
	// seq is the dataset's mutation sequence the entry was solved at.
	seq uint64
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{
		cap: capacity, ll: list.New(),
		byKey:    make(map[string]*list.Element),
		families: make(map[string]*list.Element),
	}
}

// get answers an exact-key lookup at the dataset's current mutation
// sequence. A stale-sequence entry is a miss — it stays in the LRU for
// the caller to revalidate and re-put.
func (c *resultCache) get(key string, seq uint64) (queryResponse, bool) {
	if c.cap <= 0 {
		return queryResponse{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok || el.Value.(*cacheEntry).seq != seq {
		c.misses++
		return queryResponse{}, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// reuse answers a containment lookup: the family's donor serves a
// request wanting k results when it holds at least that many rounds
// (k ≤ donor.k) or ran the dataset dry — and was solved at the
// dataset's current mutation sequence (a stale donor's greedy sequence
// may no longer be the dataset's). The donor's response rides back for
// the caller to trim; reuse hits are counted separately from exact hits
// so the two cache effects stay observable apart.
func (c *resultCache) reuse(family string, k int, seq uint64) (queryResponse, bool) {
	if c.cap <= 0 || family == "" {
		return queryResponse{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.families[family]
	if !ok {
		return queryResponse{}, false
	}
	e := el.Value.(*cacheEntry)
	if e.seq != seq {
		return queryResponse{}, false
	}
	if k > e.k && !e.exhausted {
		return queryResponse{}, false
	}
	c.reuseHits++
	c.ll.MoveToFront(el)
	return e.val, true
}

// put stores a response solved at mutation sequence seq. A non-empty
// family registers the entry as a containment donor for its
// (generation, w, h) family (see promote).
func (c *resultCache) put(key string, val queryResponse, family string, k int, exhausted bool, seq uint64) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		e := el.Value.(*cacheEntry)
		if c.families[e.family] == el {
			delete(c.families, e.family)
		}
		*e = cacheEntry{key: key, val: val, family: family, k: k, exhausted: exhausted, seq: seq}
		c.ll.MoveToFront(el)
		c.promote(el)
		return
	}
	for c.ll.Len() >= c.cap {
		c.drop(c.ll.Back())
	}
	el := c.ll.PushFront(&cacheEntry{key: key, val: val, family: family, k: k, exhausted: exhausted, seq: seq})
	c.byKey[key] = el
	c.promote(el)
}

// drop removes one entry and its indexes. Caller holds c.mu.
func (c *resultCache) drop(el *list.Element) {
	e := el.Value.(*cacheEntry)
	delete(c.byKey, e.key)
	if c.families[e.family] == el {
		delete(c.families, e.family)
	}
	c.ll.Remove(el)
}

// promote makes el its family's donor if it was solved at a later
// mutation sequence than the current one — a donor from an older
// sequence can never serve again — or, at the same sequence, if it
// covers at least as much (exhausted beats bounded; larger k beats
// smaller). Caller holds c.mu.
func (c *resultCache) promote(el *list.Element) {
	e := el.Value.(*cacheEntry)
	if e.family == "" {
		return
	}
	cur, ok := c.families[e.family]
	if !ok {
		c.families[e.family] = el
		return
	}
	ce := cur.Value.(*cacheEntry)
	covers := (e.exhausted && !ce.exhausted) || (e.exhausted == ce.exhausted && e.k >= ce.k)
	if e.seq > ce.seq || (e.seq == ce.seq && covers) {
		c.families[e.family] = el
	}
}

func (c *resultCache) stats() (hits, misses, reuseHits uint64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.reuseHits, c.ll.Len()
}
