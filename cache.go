package mistique

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"mistique/internal/cost"
)

// The paper's future-work section observes that "a diagnosis session often
// involves many queries, and therefore there may be opportunities to
// further reduce execution time via caching and pre-fetching". Session
// implements both: an LRU result cache over GetIntermediate answers, and a
// Prefetch call that pages an intermediate's partitions into the store's
// buffer pool ahead of use.

// Session wraps a System with a bounded result cache. A Session is safe
// for concurrent use: the cache index is mutex-guarded, and misses query
// the System outside the lock so concurrent analysts don't serialize on
// each other's fetches.
type Session struct {
	sys *System
	// capBytes bounds the cache payload (float32 data bytes).
	capBytes int64

	mu      sync.Mutex
	used    int64
	entries map[string]*sessionEntry
	order   []string // LRU, least recent first

	// hits and misses count cache outcomes, updated under mu; read them
	// via Stats. (They were once exported fields, which raced with
	// concurrent Get calls — any cross-goroutine read must go through the
	// lock.)
	hits, misses int64
}

type sessionEntry struct {
	res   *Result
	bytes int64
}

// NewSession creates a session cache over sys bounded to capBytes of
// result payload (default 64 MiB when capBytes <= 0).
func NewSession(sys *System, capBytes int64) *Session {
	if capBytes <= 0 {
		capBytes = 64 << 20
	}
	return &Session{sys: sys, capBytes: capBytes, entries: make(map[string]*sessionEntry)}
}

// cacheKey builds the cache index key from a planned query, whose cols
// and row count are already normalized against the catalog — so the
// distinct spellings of the same query (nil cols vs. the full column list,
// nEx <= 0 vs. the exact row count) share one entry instead of caching
// three identical copies of the data.
func cacheKey(model, interm string, cols []string, nEx int) string {
	sorted := append([]string(nil), cols...)
	sort.Strings(sorted)
	return fmt.Sprintf("%s\x00%s\x00%s\x00%d", model, interm, strings.Join(sorted, ","), nEx)
}

// Get answers like System.GetIntermediate but serves repeated queries from
// the session cache. Results that trigger adaptive materialization are
// cached too (the underlying data is immutable once logged). Cached
// results are shared between callers: treat the returned Result and its
// Data as read-only.
func (se *Session) Get(model, interm string, cols []string, nEx int) (*Result, error) {
	p, err := se.sys.Plan(Query{Op: OpGet, Model: model, Intermediate: interm, Columns: cols, To: max(nEx, 0)})
	if err != nil {
		return nil, err
	}
	key := cacheKey(model, interm, p.Columns, p.To)
	se.mu.Lock()
	if e, ok := se.entries[key]; ok {
		se.hits++
		se.touchLocked(key)
		se.mu.Unlock()
		se.sys.metrics.sessionHits.Inc()
		return e.res, nil
	}
	se.misses++
	se.mu.Unlock()
	se.sys.metrics.sessionMisses.Inc()
	// Fetch outside the lock; a concurrent miss on the same key runs its
	// own query and whichever inserts first wins (results are identical).
	res, err := se.sys.GetIntermediate(model, interm, cols, nEx)
	if err != nil {
		return nil, err
	}
	se.mu.Lock()
	se.insertLocked(key, res)
	se.mu.Unlock()
	return res, nil
}

// Stats returns the hit/miss counters, safe to call while other
// goroutines are still querying through the session.
func (se *Session) Stats() (hits, misses int64) {
	se.mu.Lock()
	defer se.mu.Unlock()
	return se.hits, se.misses
}

func (se *Session) insertLocked(key string, res *Result) {
	if _, dup := se.entries[key]; dup {
		return // a concurrent miss for the same key got here first
	}
	bytes := int64(len(res.Data.Data)) * 4
	if bytes > se.capBytes {
		return // larger than the whole cache: don't thrash
	}
	se.entries[key] = &sessionEntry{res: res, bytes: bytes}
	se.order = append(se.order, key)
	se.used += bytes
	for se.used > se.capBytes && len(se.order) > 0 {
		victim := se.order[0]
		se.order = se.order[1:]
		if e, ok := se.entries[victim]; ok {
			se.used -= e.bytes
			delete(se.entries, victim)
			se.sys.metrics.sessionEvictions.Inc()
		}
	}
}

func (se *Session) touchLocked(key string) {
	for i, k := range se.order {
		if k == key {
			copy(se.order[i:], se.order[i+1:])
			se.order[len(se.order)-1] = key
			return
		}
	}
}

// Len returns the number of cached results.
func (se *Session) Len() int {
	se.mu.Lock()
	defer se.mu.Unlock()
	return len(se.entries)
}

// Invalidate drops every cached result for the given model (e.g. after
// re-logging it).
func (se *Session) Invalidate(model string) {
	se.mu.Lock()
	defer se.mu.Unlock()
	prefix := model + "\x00"
	kept := se.order[:0]
	for _, k := range se.order {
		if strings.HasPrefix(k, prefix) {
			if e, ok := se.entries[k]; ok {
				se.used -= e.bytes
				delete(se.entries, k)
			}
			continue
		}
		kept = append(kept, k)
	}
	se.order = kept
}

// Prefetch pages every partition holding the intermediate's chunks into
// the store's buffer pool so a following read is warm. It reads (and
// discards) each column's chunks; the partitions stay resident subject to
// the pool's LRU policy. It is a forced READ that is planned but not
// recorded as a query.
func (s *System) Prefetch(model, interm string) error {
	p, err := s.Plan(Query{Op: OpGet, Model: model, Intermediate: interm, Force: cost.Read.String()})
	if err != nil {
		return err
	}
	_, err = s.run(context.Background(), p)
	return err
}
