package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"

	"repro/internal/obs"
	"repro/internal/stagecache"
)

// cacheKey addresses one rendered body by what it is built from: the
// artifact, its format, and a content key — the experiment's render key
// (core.RenderKeys), or for the "run" summary the run's fingerprint.
// Because rendering is deterministic, a key identifies exactly one byte
// sequence, which many runs may share — the property that makes the
// cache safe under concurrency and lets ETags be derived from content
// hashes.
type cacheKey struct {
	artifact string // experiment ID ("T5", "F2") or pseudo-artifact ("run")
	format   string // "json", "txt", "csv", "md", "svg"
	content  string // render key, or the run fingerprint for "run"
}

// storeKey is k's key in the render cache: the hex of the key triple.
// Hex keeps it a valid store filename, and unlike a digest it parses
// back into k, which is how a warm start learns what each entry is.
func (k cacheKey) storeKey() string {
	return hex.EncodeToString([]byte(k.artifact + "\x00" + k.format + "\x00" + k.content))
}

// parseStoreKey reverses storeKey. It refuses any other name — among
// them the keys older releases wrote, which led with a fingerprint —
// so a warm start never indexes a body under a key it was not put by.
func parseStoreKey(s string) (cacheKey, bool) {
	b, err := hex.DecodeString(s)
	parts := strings.Split(string(b), "\x00")
	if err != nil || len(parts) != 3 {
		return cacheKey{}, false
	}
	k := cacheKey{artifact: parts[0], format: parts[1], content: parts[2]}
	_, tableFormat := tableFormats[k.format]
	if k.artifact == "" || !tableFormat && k.format != "svg" || !isDigest(k.content) {
		return cacheKey{}, false
	}
	return k, true
}

// isDigest reports whether s is a lowercase hex SHA-256, the shape of
// both render keys and fingerprints.
func isDigest(s string) bool {
	return len(s) == 2*sha256.Size && strings.Trim(s, "0123456789abcdef") == ""
}

// cacheEntry is one rendered body ready to serve.
type cacheEntry struct {
	body        []byte
	etag        string // strong ETag, quoted: `"<sha256-hex>"`
	contentType string
}

// entryFor turns a stored body into a servable entry. The ETag comes
// from the checksum the store already holds, so serving a hit never
// rehashes the body; the content type is a function of the format.
func entryFor(k cacheKey, e stagecache.Entry) cacheEntry {
	ct := "image/svg+xml"
	if k.format != "svg" {
		ct = tableFormats[k.format].contentType
	}
	return cacheEntry{body: e.Payload, etag: etagOf(e.Sum), contentType: ct}
}

// etagOf returns the strong ETag for a body with the given SHA-256.
// Deterministic rendering means re-rendering the same artifact always
// reproduces the same tag, even across processes and restarts.
func etagOf(sum [sha256.Size]byte) string {
	return `"` + hex.EncodeToString(sum[:]) + `"`
}

// newRenderCache builds the rendered-artifact cache: a stage cache bound
// by bytes alone (bodies larger than the bound are served but not
// retained), with a disk tier at dir when it is set.
func newRenderCache(maxBytes int64, dir string, m *stagecache.Metrics) (*stagecache.Cache, error) {
	return stagecache.New(stagecache.Options{
		MaxBytes:      maxBytes,
		MaxEntryBytes: maxBytes,
		Dir:           dir,
		Metrics:       m,
	})
}

// renderCacheMetrics registers the rcpt_cache_* families. The labelled
// spill series exist only with a disk tier, so a memory-only daemon's
// exposition lists the families without samples.
func renderCacheMetrics(reg *obs.Registry, disk bool) *stagecache.Metrics {
	m := &stagecache.Metrics{
		Hits:      reg.Counter("rcpt_cache_hits_total", "rendered-artifact cache hits"),
		Misses:    reg.Counter("rcpt_cache_misses_total", "rendered-artifact cache misses"),
		Evictions: reg.Counter("rcpt_cache_evictions_total", "rendered artifacts evicted by the byte bound"),
		Bytes:     reg.Gauge("rcpt_cache_bytes", "bytes of rendered artifacts held"),
		Entries:   reg.Gauge("rcpt_cache_entries", "rendered artifacts held"),
		DiskHits:  reg.Counter("rcpt_cache_disk_hits_total", "rendered-artifact reads served from the disk spill"),
	}
	spill := reg.CounterVec("rcpt_cache_spill_total", "rendered artifacts spilled to disk, by outcome", "outcome")
	if disk {
		m.DiskWrites, m.DiskErrors = spill.With("ok"), spill.With("error")
	}
	return m
}
