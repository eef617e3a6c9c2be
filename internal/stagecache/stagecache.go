// Package stagecache is the repository's crash-safe content-addressed
// byte store. It backs two caches: the pipeline's Merkle stage cache,
// whose keys are opaque hex digests derived by internal/core (stage name
// ‖ version tag ‖ the config fields the stage actually reads ‖ sorted
// upstream keys — see core's key derivation), and the serving layer's
// cache of rendered artifacts. Because a key commits to the bytes it
// names, an entry can be trusted forever: there is no invalidation
// protocol, only derivation — a config change that affects a stage
// changes its key (and every key downstream), and everything unaffected
// keeps hitting.
//
// Storage is two-tier: an in-memory LRU bounded by payload bytes, in
// front of an optional on-disk tier written through internal/durable
// (one "rcpt-stg/1" envelope per key, written with
// temp file + fsync + atomic rename, verified on every load). Each entry
// keeps the SHA-256 computed once at Store, or verified on a disk read,
// so callers that publish it (the serving layer's ETags) never rehash.
// The failure contract matches the rest of the repo: a corrupt, torn,
// or truncated entry is deleted and reported as a miss — the caller
// recomputes, so faults cost latency, never bytes.
package stagecache

import (
	"container/list"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/durable"
	"repro/internal/obs"
)

// suffix names the disk tier's entry files: <key>.stg.
const suffix = ".stg"

// Options configures a Cache. The zero value is usable: memory-only
// with production default bounds.
type Options struct {
	// MaxBytes bounds the total payload bytes held in memory
	// (<=0: 256 MiB). It is the one bound: an entry weighs its bytes.
	MaxBytes int64
	// MaxEntryBytes is the largest single payload worth caching
	// (<=0: 64 MiB). Larger payloads are cheaper to recompute than to
	// let one entry monopolize the cache, so Store skips them.
	MaxEntryBytes int64
	// Dir enables the disk tier: payloads are written here crash-safely
	// and read through on memory misses, so a restarted process warm
	// starts. Empty keeps the cache memory-only.
	Dir string
	// Metrics, when non-nil, receives hit/miss/store/eviction counts.
	// Nil disables instrumentation (library use, tests).
	Metrics *Metrics
}

// Metrics is the instrumentation surface a Cache feeds. All fields are
// optional; nil counters are skipped.
type Metrics struct {
	Hits       *obs.Counter // loads served (memory or disk)
	Misses     *obs.Counter // loads that found nothing usable
	Stores     *obs.Counter // payloads accepted into the cache
	Evictions  *obs.Counter // memory-LRU evictions (disk copies survive)
	DiskHits   *obs.Counter // loads that had to read the disk tier
	DiskWrites *obs.Counter // disk writes that landed
	DiskErrors *obs.Counter // best-effort disk writes that failed
	Corrupt    *obs.Counter // envelopes that failed verification (deleted)
	Entries    *obs.Gauge   // payloads currently resident in memory
	Bytes      *obs.Gauge   // payload bytes currently resident in memory
}

// Entry is one stored payload and its SHA-256.
type Entry struct {
	Payload []byte
	Sum     [sha256.Size]byte
}

// Cache is a content-addressed byte store. Safe for concurrent use.
type Cache struct {
	opts Options
	m    *Metrics // never nil

	mu    sync.Mutex
	ll    *list.List // front = most recently used; values are *memEntry
	items map[string]*list.Element
	bytes int64
}

// memEntry is one resident payload.
type memEntry struct {
	key string
	Entry
}

// New builds a Cache. When Options.Dir is set the directory is created;
// its existing contents become visible immediately through read-through
// loads (call Warm to validate and count them up front).
func New(opts Options) (*Cache, error) {
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = 256 << 20
	}
	if opts.MaxEntryBytes <= 0 {
		opts.MaxEntryBytes = 64 << 20
	}
	c := &Cache{opts: opts, m: opts.Metrics, ll: list.New(), items: map[string]*list.Element{}}
	if c.m == nil {
		c.m = &Metrics{}
	}
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("stagecache: dir: %w", err)
		}
	}
	return c, nil
}

// Load returns the payload stored under key; see Get.
func (c *Cache) Load(key string) ([]byte, bool) {
	e, ok := c.Get(key)
	return e.Payload, ok
}

// Get returns the entry stored under key, reading through to the disk
// tier on a memory miss (the disk copy is promoted). The payload is
// shared: callers must treat it as read-only, which every stage decoder
// and response writer does by construction. A corrupt disk entry is
// deleted and reported as a miss.
func (c *Cache) Get(key string) (Entry, bool) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*memEntry).Entry
		c.mu.Unlock()
		inc(c.m.Hits)
		return e, true
	}
	c.mu.Unlock()
	if c.opts.Dir != "" && validKey(key) {
		payload, sum, err := durable.ReadFile(c.path(key), key)
		if err == nil {
			e := Entry{Payload: payload, Sum: sum}
			c.put(key, e)
			inc(c.m.DiskHits)
			inc(c.m.Hits)
			return e, true
		}
		if errors.Is(err, durable.ErrCorrupt) {
			inc(c.m.Corrupt)
		}
	}
	inc(c.m.Misses)
	return Entry{}, false
}

// Store accepts a payload under key; see Put.
func (c *Cache) Store(key string, payload []byte) { c.Put(key, payload) }

// Put hashes payload and stores it under key: into the memory LRU and,
// when the disk tier is on, written crash-safely. It returns the entry
// either way. Oversized payloads (past MaxEntryBytes) are not retained —
// recomputing them is cheaper than letting one entry evict everything
// else. Disk failures are counted, never fatal: the memory copy still
// serves this process.
func (c *Cache) Put(key string, payload []byte) Entry {
	e := Entry{Payload: payload, Sum: sha256.Sum256(payload)}
	if key == "" || int64(len(payload)) > c.opts.MaxEntryBytes {
		return e
	}
	c.put(key, e)
	inc(c.m.Stores)
	if c.opts.Dir != "" {
		if !validKey(key) {
			inc(c.m.DiskErrors)
		} else if err := durable.WriteFile(c.path(key), durable.Encode(key, payload, e.Sum)); err != nil {
			inc(c.m.DiskErrors)
		} else {
			inc(c.m.DiskWrites)
		}
	}
	return e
}

// Delete removes key from both tiers. Core calls it when a payload
// decodes as structurally invalid despite a valid checksum (a codec
// skew), so the entry cannot be retried forever.
func (c *Cache) Delete(key string) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.removeLocked(el)
	}
	c.mu.Unlock()
	c.gauges()
	if c.opts.Dir != "" && validKey(key) {
		os.Remove(c.path(key))
	}
}

// Warm validates every entry in the disk tier up front: corrupt
// envelopes and leftover temp files from a crashed write are deleted,
// valid entries are counted as restorable and, when visit is non-nil,
// passed to it. They load lazily through Get, so boot cost is one
// verification scan, not a full residency load. The scan order is
// sorted, so warm-start counts and visit order are deterministic across
// filesystems.
func (c *Cache) Warm(visit func(key string, e Entry)) (restored, corrupt int) {
	if c.opts.Dir == "" {
		return 0, 0
	}
	durable.Scan(c.opts.Dir, suffix, func(key string) {
		if !validKey(key) {
			// Not a name any store key produces: junk, not an entry.
			os.Remove(c.path(key))
			corrupt++
			return
		}
		payload, sum, err := durable.ReadFile(c.path(key), key)
		if err != nil {
			corrupt++
			return
		}
		restored++
		if visit != nil {
			visit(key, Entry{Payload: payload, Sum: sum})
		}
	})
	for i := 0; i < corrupt; i++ {
		inc(c.m.Corrupt)
	}
	return restored, corrupt
}

// Len reports resident memory entries (tests and gauges).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes reports resident memory payload bytes (tests and gauges).
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// validKey reports whether key is usable as a filename: non-empty
// lowercase hex that fits the envelope's key bound. Anything else never
// touches the filesystem.
func validKey(key string) bool {
	if key == "" || len(key) > durable.MaxKeyLen {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.opts.Dir, key+suffix)
}

// put inserts (or refreshes) a memory entry and evicts past bounds.
func (c *Cache) put(key string, e Entry) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		me := el.Value.(*memEntry)
		c.bytes += int64(len(e.Payload)) - int64(len(me.Payload))
		me.Entry = e
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&memEntry{key: key, Entry: e})
		c.bytes += int64(len(e.Payload))
	}
	evicted := 0
	for c.bytes > c.opts.MaxBytes && c.ll.Len() > 1 {
		c.removeLocked(c.ll.Back())
		evicted++
	}
	c.mu.Unlock()
	for i := 0; i < evicted; i++ {
		inc(c.m.Evictions)
	}
	c.gauges()
}

// removeLocked drops one element from the LRU. Caller holds mu.
func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*memEntry)
	c.ll.Remove(el)
	delete(c.items, e.key)
	c.bytes -= int64(len(e.Payload))
}

// gauges publishes residency after any mutation.
func (c *Cache) gauges() {
	c.mu.Lock()
	entries, bytes := int64(c.ll.Len()), c.bytes
	c.mu.Unlock()
	if c.m.Entries != nil {
		c.m.Entries.Set(entries)
	}
	if c.m.Bytes != nil {
		c.m.Bytes.Set(bytes)
	}
}

// inc bumps a counter when instrumentation is attached.
func inc(ctr *obs.Counter) {
	if ctr != nil {
		ctr.Inc()
	}
}
