package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/stagecache"
)

// testCache builds a memory-only render cache and returns its metrics.
func testCache(t *testing.T, maxBytes int64) (*stagecache.Cache, *stagecache.Metrics) {
	t.Helper()
	m := renderCacheMetrics(obs.NewRegistry(), false)
	c, err := newRenderCache(maxBytes, "", m)
	if err != nil {
		t.Fatal(err)
	}
	return c, m
}

func key(id string) string {
	return cacheKey{artifact: id, format: "txt", content: "fp"}.storeKey()
}

func TestCacheHitMissCounters(t *testing.T) {
	c, m := testCache(t, 1<<20)
	if _, hit := c.Get(key("T1")); hit {
		t.Fatal("hit on empty cache")
	}
	c.Put(key("T1"), []byte("hello"))
	e, hit := c.Get(key("T1"))
	if !hit || string(e.Payload) != "hello" {
		t.Fatalf("get = %q, %v; want hello, true", e.Payload, hit)
	}
	if got := m.Hits.Value(); got != 1 {
		t.Errorf("hits = %d, want 1", got)
	}
	if got := m.Misses.Value(); got != 1 {
		t.Errorf("misses = %d, want 1", got)
	}
}

// TestCacheLRUEviction: the byte bound evicts from the cold tail, and a
// get refreshes recency. There is no count bound.
func TestCacheLRUEviction(t *testing.T) {
	c, m := testCache(t, 30) // room for three 10-byte bodies
	body := []byte("0123456789")
	c.Put(key("a"), body)
	c.Put(key("b"), body)
	c.Put(key("c"), body)
	if c.Len() != 3 {
		t.Fatalf("len = %d, want 3", c.Len())
	}
	// Touch "a" so "b" is now the LRU tail.
	if _, hit := c.Get(key("a")); !hit {
		t.Fatal("expected a cached")
	}
	c.Put(key("d"), body)
	if _, hit := c.Get(key("b")); hit {
		t.Error("b survived eviction; want it dropped as LRU tail")
	}
	for _, id := range []string{"a", "c", "d"} {
		if _, hit := c.Get(key(id)); !hit {
			t.Errorf("%s evicted; want retained", id)
		}
	}
	if got := m.Evictions.Value(); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}

	many, _ := testCache(t, 1<<20)
	for i := 0; i < 1000; i++ {
		many.Put(key(fmt.Sprint(i)), body)
	}
	if many.Len() != 1000 {
		t.Errorf("len = %d after 1000 small bodies, want 1000 (bytes alone bound the cache)", many.Len())
	}
}

// TestCacheOversizedNotRetained: a body larger than the whole bound is
// served but never stored (it would evict everything for one entry),
// and its checksum still comes back for the ETag.
func TestCacheOversizedNotRetained(t *testing.T) {
	c, _ := testCache(t, 8)
	big := []byte("way more than eight bytes")
	if e := c.Put(key("big"), big); e.Sum != sha256.Sum256(big) {
		t.Fatal("oversized body returned without its checksum")
	}
	if c.Len() != 0 {
		t.Fatalf("oversized body retained; len = %d", c.Len())
	}
}

// TestCacheConcurrent hammers get/put from many goroutines; run under
// -race this is the cache's data-race test.
func TestCacheConcurrent(t *testing.T) {
	c, _ := testCache(t, 1<<10)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := key(fmt.Sprintf("T%d", i%20))
				if _, hit := c.Get(k); !hit {
					c.Put(k, []byte(fmt.Sprintf("body-%d", i%20)))
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() == 0 {
		t.Fatal("cache empty after concurrent fill")
	}
}

func TestStoreKeyRoundTrip(t *testing.T) {
	k := cacheKey{artifact: "F13", format: "json", content: tinyConfig().Fingerprint()}
	got, ok := parseStoreKey(k.storeKey())
	if !ok || got != k {
		t.Fatalf("parseStoreKey(storeKey(%v)) = %v, %v", k, got, ok)
	}
	if _, ok := parseStoreKey("zz"); ok {
		t.Fatal("parsed a non-hex key")
	}
}

// TestParseStoreKey: a warm start indexes only names storeKey writes.
// Everything else — non-hex, the wrong number of parts, an unknown
// format, a content part that is not a SHA-256, and the key layout of
// older releases, which led with the fingerprint — is refused.
func TestParseStoreKey(t *testing.T) {
	renderKey := tinyConfig().Fingerprint() // any 64-hex digest
	raw := func(parts ...string) string { return hex.EncodeToString([]byte(strings.Join(parts, "\x00"))) }
	for _, c := range []struct {
		name, store string
		want        cacheKey
		ok          bool
	}{
		{"table", cacheKey{"T16", "json", renderKey}.storeKey(), cacheKey{"T16", "json", renderKey}, true},
		{"figure", cacheKey{"F4", "svg", renderKey}.storeKey(), cacheKey{"F4", "svg", renderKey}, true},
		{"run summary", cacheKey{"run", "json", renderKey}.storeKey(), cacheKey{"run", "json", renderKey}, true},
		{"not hex", "zz" + cacheKey{"T5", "csv", renderKey}.storeKey(), cacheKey{}, false},
		{"two parts", raw("T5", renderKey), cacheKey{}, false},
		{"four parts", raw("T5", "json", renderKey, "x"), cacheKey{}, false},
		{"older layout", raw(renderKey, "T5", "json"), cacheKey{}, false},
		{"empty artifact", raw("", "json", renderKey), cacheKey{}, false},
		{"unknown format", raw("T5", "xml", renderKey), cacheKey{}, false},
		{"short content", raw("T5", "json", renderKey[:63]), cacheKey{}, false},
		{"uppercase content", raw("T5", "json", strings.ToUpper(renderKey)), cacheKey{}, false},
	} {
		got, ok := parseStoreKey(c.store)
		if ok != c.ok || got != c.want {
			t.Errorf("%s: parseStoreKey = %+v, %v; want %+v, %v", c.name, got, ok, c.want, c.ok)
		}
	}
	if n := len(cacheKey{"T16", "json", renderKey}.storeKey()); n != 146 {
		t.Errorf("store key of T16/json is %d hex characters, want 146", n)
	}
}

func TestETagFormat(t *testing.T) {
	e := etagOf(sha256.Sum256([]byte("x")))
	if len(e) != 66 || e[0] != '"' || e[len(e)-1] != '"' {
		t.Fatalf("etag %q: want quoted 64-hex", e)
	}
	if e != etagOf(sha256.Sum256([]byte("x"))) {
		t.Fatal("etag not deterministic")
	}
	if e == etagOf(sha256.Sum256([]byte("y"))) {
		t.Fatal("distinct bodies share an etag")
	}
}

func TestETagMatches(t *testing.T) {
	tag := `"abc"`
	cases := []struct {
		header string
		want   bool
	}{
		{`"abc"`, true},
		{`*`, true},
		{`"zzz", "abc"`, true},
		{`W/"abc"`, true}, // weak tag, same bytes: treat as match for 304
		{`"zzz"`, false},
		{``, false},
	}
	for _, c := range cases {
		if got := etagMatches(c.header, tag); got != c.want {
			t.Errorf("etagMatches(%q) = %v, want %v", c.header, got, c.want)
		}
	}
}
