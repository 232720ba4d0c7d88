package campaign

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"

	"rowhammer/internal/dram"
	"rowhammer/internal/profile"
)

// profileKey is the content address of a flip template: every input
// that determines the profiled inventory, and nothing else. Two
// campaigns with equal keys would compute bit-identical templates, so
// the cache may hand the second one the first one's profile.
type profileKey struct {
	geom        dram.Geometry
	device      dram.DeviceProfile
	seed        int64
	fault       dram.FaultModel
	bufferPages int
	sides       int
	intensity   float64
	measureSeed int64
}

// fingerprint is the key's stable serialized identity: a hash of the
// full field dump. It is what checkpoints persist — the struct itself
// never leaves the process, so the daemon's on-disk cache-key set stays
// valid across binary versions that do not change the key's content.
func (k profileKey) fingerprint() string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%#v", k)))
	return hex.EncodeToString(sum[:16])
}

// skuKey identifies a module stock-keeping unit — the (device, size)
// class a fleet sweeps many individual modules of. Seeds and attack
// configs vary within an SKU; the geometry and device physics do not.
type skuKey struct {
	device dram.DeviceProfile
	geom   dram.Geometry
}

// cacheEntry is one in-flight or completed template. ready is closed
// when prof/err are final; until then exactly one campaign (the leader)
// is computing while followers wait on ready.
type cacheEntry struct {
	ready chan struct{}
	prof  *profile.Profile
	err   error
	// transient marks an aborted entry: err is environmental (module
	// allocation, cancellation) rather than a function of the key. The
	// entry has been removed from the map; woken followers must re-begin
	// and one of them becomes the next leader.
	transient bool
	key       profileKey
	// elem tracks the entry's position in the recency list once it is
	// completed; in-flight entries are never evictable and have no elem.
	elem *list.Element
}

// ProfileCache memoizes flip templates across campaigns, keyed on the
// full module-plus-profiling identity, with single-flight deduplication
// of concurrent misses, optional LRU bounding for long-lived daemons,
// and an advisory per-SKU arena high-water mark. Safe for concurrent
// use and reusable across Run invocations (a warm fleet).
//
// Only template-computation outcomes are cached — success or error,
// both deterministic functions of the key. Environmental failures
// (module allocation, cancellation) abort the entry instead, so the
// next campaign of that identity re-attempts rather than inheriting a
// stale transient error. A daemon that lives for days depends on this:
// one ENOMEM blip must not condemn a hardware identity forever.
type ProfileCache struct {
	mu         sync.Mutex
	entries    map[profileKey]*cacheEntry
	recency    *list.List // completed entries, most recent at front
	maxEntries int        // 0 = unbounded
	evicted    int64
	// maxArena is the largest module arena a finished campaign of each
	// SKU materialized — the admission estimate for the next one. It is
	// strictly advisory: it sizes admission reservations but never
	// enters planning or hammering, so a campaign's result is identical
	// at any cache state.
	maxArena map[skuKey]int64
}

// NewProfileCache returns an empty, unbounded cache.
func NewProfileCache() *ProfileCache {
	return NewProfileCacheSize(0)
}

// NewProfileCacheSize returns an empty cache holding at most maxEntries
// completed templates (0 = unbounded). When full, completing a new
// template evicts the least-recently-used completed entry; in-flight
// entries are never evicted. Eviction only trades memory for re-compute
// work: a later campaign of an evicted identity re-templates and, by
// the determinism invariant, reproduces the evicted profile bit for
// bit. The advisory per-SKU arena marks are unaffected by eviction.
func NewProfileCacheSize(maxEntries int) *ProfileCache {
	if maxEntries < 0 {
		maxEntries = 0
	}
	return &ProfileCache{
		entries:    make(map[profileKey]*cacheEntry),
		recency:    list.New(),
		maxEntries: maxEntries,
		maxArena:   make(map[skuKey]int64),
	}
}

// begin looks up or creates the entry for a key. The second return is
// true for the leader — the caller that must compute the template and
// finish the entry with publish (template outcome) or abort (transient
// failure); everyone else waits on entry.ready.
func (c *ProfileCache) begin(k profileKey) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[k]; ok {
		if e.elem != nil {
			c.recency.MoveToFront(e.elem)
		}
		return e, false
	}
	e := &cacheEntry{ready: make(chan struct{}), key: k}
	c.entries[k] = e
	return e, true
}

// wait blocks until the entry is final or ctx is cancelled. It returns
// ctx's error on cancellation — a follower must not block forever on a
// leader that was itself cancelled (the leader's abort wakes everyone,
// but the follower's own deadline applies regardless).
func (c *ProfileCache) wait(ctx context.Context, e *cacheEntry) error {
	select {
	case <-e.ready:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// publish finalizes a leader's entry with the template computation's
// outcome. An errored template stays cached: the error is a
// deterministic function of the key, so every campaign of that identity
// fails identically instead of re-templating. Only template-computation
// errors may be published — pre-template failures go through abort.
func (c *ProfileCache) publish(e *cacheEntry, prof *profile.Profile, err error) {
	e.prof, e.err = prof, err
	c.mu.Lock()
	if _, live := c.entries[e.key]; live {
		e.elem = c.recency.PushFront(e)
		c.evictLocked()
	}
	c.mu.Unlock()
	close(e.ready)
}

// abort finalizes a leader's entry with a transient, environmental
// failure — a module-allocation error or cancellation that says nothing
// about the key itself. The entry is removed from the map so the next
// begin of this identity elects a fresh leader, and waiting followers
// wake with transient set, telling them to re-begin (one of them
// becomes that leader) instead of inheriting the failure.
func (c *ProfileCache) abort(e *cacheEntry, err error) {
	e.err, e.transient = err, true
	c.mu.Lock()
	if cur, ok := c.entries[e.key]; ok && cur == e {
		delete(c.entries, e.key)
	}
	c.mu.Unlock()
	close(e.ready)
}

// evictLocked drops least-recently-used completed entries beyond the
// bound. Caller holds c.mu.
func (c *ProfileCache) evictLocked() {
	if c.maxEntries == 0 {
		return
	}
	for c.recency.Len() > c.maxEntries {
		back := c.recency.Back()
		e := back.Value.(*cacheEntry)
		c.recency.Remove(back)
		e.elem = nil
		if cur, ok := c.entries[e.key]; ok && cur == e {
			delete(c.entries, e.key)
		}
		c.evicted++
	}
}

// Entries reports how many templates (including errored and in-flight
// ones) the cache holds.
func (c *ProfileCache) Entries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Evicted reports how many completed templates the LRU bound has
// dropped over the cache's lifetime.
func (c *ProfileCache) Evicted() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evicted
}

// Fingerprints returns the sorted key fingerprints of every entry
// (including in-flight and errored ones) — the serializable cache-key
// set a daemon checkpoints so a resumed fleet reproduces the exact
// cache-hit assignment of its uninterrupted run.
func (c *ProfileCache) Fingerprints() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.entries))
	for k := range c.entries {
		out = append(out, k.fingerprint())
	}
	sort.Strings(out)
	return out
}

// observe folds one finished campaign's arena high-water mark into its
// SKU's.
func (c *ProfileCache) observe(k skuKey, arena int64) {
	c.mu.Lock()
	c.maxArena[k] = max(c.maxArena[k], arena)
	c.mu.Unlock()
}

// arenaPrior returns the SKU's arena high-water mark (0 when the SKU
// has never run).
func (c *ProfileCache) arenaPrior(k skuKey) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.maxArena[k]
}
