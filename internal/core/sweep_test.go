package core

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/sched"
	"repro/internal/table"
)

// eventCache is an in-memory StageCache that logs, per key, every hit,
// miss, store and delete.
type eventCache struct {
	mu     sync.Mutex
	m      map[string][]byte
	events map[string][]string
}

func newEventCache() *eventCache {
	return &eventCache{m: map[string][]byte{}, events: map[string][]string{}}
}

func (c *eventCache) Load(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.m[key]
	if ok {
		c.events[key] = append(c.events[key], "hit")
	} else {
		c.events[key] = append(c.events[key], "miss")
	}
	return p, ok
}

func (c *eventCache) Store(key string, payload []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events[key] = append(c.events[key], "store")
	c.m[key] = payload
}

func (c *eventCache) Delete(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events[key] = append(c.events[key], "delete")
	delete(c.m, key)
}

// take returns key's events so far and forgets them.
func (c *eventCache) take(key string) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	ev := c.events[key]
	delete(c.events, key)
	return ev
}

// sweepKeys returns the stage keys of cfg's 2011 and 2024 sweep halves.
func sweepKeys(cfg Config) [2]string {
	var keys [2]string
	for i, h := range sweepHalves(cfg) {
		keys[i] = newStageCacher(nil).key(h.spec(cfg, new([]float64)))
	}
	return keys
}

// renderT16 renders T16 from a as ASCII.
func renderT16(t *testing.T, a *Artifacts) string {
	t.Helper()
	tab, err := table16(a)
	if err != nil {
		t.Fatalf("T16: %v", err)
	}
	var b bytes.Buffer
	if err := tab.WriteASCII(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestSweepHalvesReuse: once T16 has rendered for a config, a config
// that changes one cohort's size loads the other cohort's half as a hit,
// computes and stores only its own, and renders the bytes of an
// uncached render.
func TestSweepHalvesReuse(t *testing.T) {
	base := equivConfig()
	for _, c := range []struct {
		field          string
		change         func(*Config)
		reused, redone int // half indices: 0 is 2011, 1 is 2024
	}{
		{"n2011", func(c *Config) { c.N2011++ }, 1, 0},
		{"n2024", func(c *Config) { c.N2024++ }, 0, 1},
	} {
		t.Run(c.field, func(t *testing.T) {
			cache := newEventCache()
			renderT16(t, runCached(t, base, cache))
			for i, key := range sweepKeys(base) {
				if ev := cache.take(key); !slices.Equal(ev, []string{"miss", "store"}) {
					t.Fatalf("first render: half %d events %v, want a miss and a store", i, ev)
				}
			}
			changed := base
			c.change(&changed)
			keys := sweepKeys(changed)
			got := renderT16(t, runCached(t, changed, cache))
			if ev := cache.take(keys[c.reused]); !slices.Equal(ev, []string{"hit"}) {
				t.Errorf("unchanged half: events %v, want one hit", ev)
			}
			if ev := cache.take(keys[c.redone]); !slices.Equal(ev, []string{"miss", "store"}) {
				t.Errorf("changed half: events %v, want a miss and a store", ev)
			}
			if want := renderT16(t, newArtifacts(changed)); got != want {
				t.Fatalf("cached render differs from an uncached one:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// TestSweepHalfKeys: a half's key derives from the seed and its own
// cohort's size, as the documented formula says, and no other field of
// the config reaches it.
func TestSweepHalfKeys(t *testing.T) {
	base := equivConfig()
	baseKeys := sweepKeys(base)
	for i, n := range []int{base.N2011, base.N2024} {
		name := fmt.Sprintf("sweep-%d", []int{2011, 2024}[i])
		want := deriveKey(stageKeyVersion, name, "sweep/1", fmt.Sprintf("seed=%d\nn=%d\n", base.Seed, n), nil)
		if baseKeys[i] != want {
			t.Fatalf("%s key %s, want %s", name, baseKeys[i], want)
		}
	}
	for _, c := range []struct {
		field  string
		change func(*Config)
		moves  [2]bool // whether the 2011 and 2024 keys change
	}{
		{"seed", func(c *Config) { c.Seed++ }, [2]bool{true, true}},
		{"n2011", func(c *Config) { c.N2011++ }, [2]bool{true, false}},
		{"n2024", func(c *Config) { c.N2024++ }, [2]bool{false, true}},
		{"workers", func(c *Config) { c.Workers = 3 }, [2]bool{}},
		{"policy", func(c *Config) { c.Policy = sched.FCFS }, [2]bool{}},
		{"paneln", func(c *Config) { c.PanelN++ }, [2]bool{}},
		{"noiserate", func(c *Config) { c.NoiseRate = 0.1 }, [2]bool{}},
	} {
		changed := base
		c.change(&changed)
		keys := sweepKeys(changed)
		for i := range keys {
			if moved := keys[i] != baseKeys[i]; moved != c.moves[i] {
				t.Errorf("%s: half %d key moved=%v, want %v", c.field, i, moved, c.moves[i])
			}
		}
	}
}

// TestSweepPoisonedHalf: a half's entry that the store vouches for but
// its decoder refuses — wrong magic, or a share count other than the
// half's — is deleted and recomputed, and T16's bytes do not change.
func TestSweepPoisonedHalf(t *testing.T) {
	cfg := equivConfig()
	want := renderT16(t, newArtifacts(cfg))
	keys := sweepKeys(cfg)
	halves := sweepHalves(cfg)
	for _, c := range []struct {
		name    string
		payload func(shares int) ([]byte, error)
	}{
		{"wrong magic", func(shares int) ([]byte, error) {
			return encodePayload(payloadRake, func(w *table.Writer) error {
				w.Uvarint(uint64(shares))
				for range shares {
					w.Float64(0.5)
				}
				return nil
			})
		}},
		{"short count", func(shares int) ([]byte, error) {
			return encodeSweepPayload(make([]float64, shares-1))
		}},
		{"long count", func(shares int) ([]byte, error) {
			return encodeSweepPayload(make([]float64, shares+1))
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			cache := newEventCache()
			for i, key := range keys {
				p, err := c.payload(sweepReplicates * len(halves[i].shares))
				if err != nil {
					t.Fatal(err)
				}
				cache.m[key] = p
			}
			a := newArtifacts(cfg)
			a.stageCache = cache
			if got := renderT16(t, a); got != want {
				t.Fatalf("render from a poisoned cache differs:\n%s\nwant:\n%s", got, want)
			}
			for i, key := range keys {
				if ev := cache.take(key); !slices.Equal(ev, []string{"hit", "delete", "store"}) {
					t.Errorf("half %d: events %v, want the poisoned hit deleted and a fresh store", i, ev)
				}
			}
		})
	}
}
