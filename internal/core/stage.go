package core

// Stage specs: every pipeline stage is declared once, as a stage[T]
// (the list is stages, in core.go), the one source of its graph edges,
// Merkle key and payload codec.

import (
	"context"
	"fmt"

	"repro/internal/parallel"
)

// stage declares one pipeline stage, typed over its output T.
type stage[T any] struct {
	name    string
	version string   // cache version tag (see stagecache.go)
	inputs  string   // the config fields the stage reads, as deriveKey takes them
	deps    []string // upstream stages: graph edges and Merkle parents alike
	// stealable marks a stage a peer may compute: it has no deps, so
	// (config, name) alone determines its bytes.
	stealable bool
	run       func() (T, error) // computes the output
	set       func(T) error     // installs an output into the run's artifacts
	codec     codec[T]          // zero for a stage that is never cached
}

// codec is the payload encoding of a stage output. decode restores a
// whole output at once. hold, when set, restores a hit in decode's
// place: it runs the payload's checks that need no other stage now and
// leaves the rest of the decode to the output's first read (hold.go).
// A first read that fails takes its output from redo instead; with a
// nil redo it returns its error.
type codec[T any] struct {
	encode func(T) ([]byte, error)
	decode func([]byte) (T, error)
	hold   func(payload []byte, redo func() (T, error)) (T, error)
}

// spec is a stage with its output type erased, so one list holds the
// whole pipeline.
type spec struct {
	name, version, inputs string
	deps                  []string
	stealable             bool
	run                   func() (any, error)
	set                   func(any) error
	encode                func(any) ([]byte, error) // nil: never cached
	decode                func([]byte) (any, error)
	hold                  func(payload []byte, redo func() (any, error)) (any, error) // nil: decode
}

func (s stage[T]) spec() spec {
	sp := spec{
		name: s.name, version: s.version, inputs: s.inputs, deps: s.deps, stealable: s.stealable,
		run: func() (any, error) { return s.run() },
		set: func(v any) error {
			t, _ := v.(T)
			return s.set(t)
		},
	}
	if s.codec.encode != nil {
		sp.encode = func(v any) ([]byte, error) {
			t, _ := v.(T)
			return s.codec.encode(t)
		}
		sp.decode = func(payload []byte) (any, error) { return s.codec.decode(payload) }
	}
	if hold := s.codec.hold; hold != nil {
		sp.hold = func(payload []byte, redo func() (any, error)) (any, error) {
			var typed func() (T, error)
			if redo != nil {
				typed = func() (T, error) {
					v, err := redo()
					t, _ := v.(T)
					return t, err
				}
			}
			return hold(payload, typed)
		}
	}
	return sp
}

// assign is the set of a stage whose output lands in one slot.
func assign[T any](dst *T) func(T) error {
	return func(v T) error {
		*dst = v
		return nil
	}
}

// StealFunc is the distribution seam (RunOptions.Steal). A run offers
// it every stealable stage it must compute — a stage-cache hit never
// reaches it — with the stage's name and local, its in-process body.
// The hook either returns a payload computed elsewhere, which the run
// restores exactly like a cache hit, or calls local and returns a nil
// payload. A payload that fails to restore is dropped, never stored,
// and the stage computes locally; a hook error fails the stage.
type StealFunc func(ctx context.Context, cfg Config, stage string, local func() error) ([]byte, error)

// stageCacher runs one pipeline run's (or one RunStage call's) specs
// against a stage cache (nil: no caching), recording each cached
// stage's Merkle key as it is added.
type stageCacher struct {
	cache StageCache
	keys  map[string]string
}

func newStageCacher(cache StageCache) *stageCacher {
	return &stageCacher{cache: cache, keys: map[string]string{}}
}

// add registers s on g: the deps its Merkle key derives from are the
// deps g orders it by, and its body is exec.
func (sc *stageCacher) add(ctx context.Context, g *parallel.Graph, cfg Config, s spec, steal StealFunc) {
	key := sc.key(s)
	g.Add(s.name, func() error {
		_, err := sc.exec(ctx, cfg, s, key, steal, false)
		return err
	}, s.deps...)
}

// key derives, records and returns s's Merkle key ("" for an uncached
// stage). Specs are in topological order, so a missing upstream key is
// a wiring bug, not a runtime state.
func (sc *stageCacher) key(s spec) string {
	if s.encode == nil {
		return ""
	}
	ups := make([]string, len(s.deps))
	for i, d := range s.deps {
		k, ok := sc.keys[d]
		if !ok {
			panic(fmt.Sprintf("core: stage %q derives from %q before its key exists", s.name, d))
		}
		ups[i] = k
	}
	sc.keys[s.name] = deriveKey(stageKeyVersion, s.name, s.version, s.inputs, ups)
	return sc.keys[s.name]
}

// exec is the one path every stage runs through, in the graph and in
// RunStage: load → restore, else compute (here, or on a peer through
// steal) → encode → store. Encoding right as the stage ends, before any
// dependent runs, snapshots the output at completion (cohort weights
// before raking rewrites them). It returns the payload when a cache is
// attached or want is set; an encode failure skips the store and, unless
// want is set, the run goes on with the computed values.
func (sc *stageCacher) exec(ctx context.Context, cfg Config, s spec, key string, steal StealFunc, want bool) ([]byte, error) {
	if sc.cache != nil && s.encode != nil {
		if payload, hit := sc.cache.Load(key); hit {
			// A held output whose first read fails recomputes through
			// held.run, which also repairs the entry.
			held := s
			held.run = sc.redo(s, key)
			if restore(held, payload) == nil {
				return payload, nil
			}
			// Valid checksum, invalid structure: codec skew or a damaged
			// store. Drop the entry and recompute — the cache may only
			// ever cost latency.
			sc.cache.Delete(key)
		}
	}
	var out any
	ran := false
	local := func() error {
		ran = true
		v, err := s.run()
		if err != nil {
			return err
		}
		out = v
		return s.set(v)
	}
	if s.stealable && steal != nil {
		stolen, err := steal(ctx, cfg, s.name, local)
		if err != nil {
			return nil, err
		}
		// Peer bytes cross a trust boundary: the whole payload is read
		// before the run keeps or stores it.
		if !ran && stolen != nil && install(s, stolen, nil, true) == nil {
			if sc.cache != nil {
				sc.cache.Store(key, stolen)
			}
			return stolen, nil
		}
	}
	if !ran {
		if err := local(); err != nil {
			return nil, err
		}
	}
	if s.encode == nil || (sc.cache == nil && !want) {
		return nil, nil
	}
	payload, err := s.encode(out)
	if err != nil && want {
		return nil, err
	}
	if err == nil && sc.cache != nil {
		sc.cache.Store(key, payload)
	}
	return payload, nil
}

// redo is the recompute of a held stage whose first read failed: the
// entry goes, the body runs, and the fresh payload repairs the entry.
func (sc *stageCacher) redo(s spec, key string) func() (any, error) {
	return func() (any, error) {
		sc.cache.Delete(key)
		v, err := s.run()
		if err != nil {
			return nil, err
		}
		if payload, err := s.encode(v); err == nil {
			sc.cache.Store(key, payload)
		}
		return v, nil
	}
}

// restore installs a cache hit's payload into the stage's artifact
// slots; a held output whose first read fails recomputes through s.run.
func restore(s spec, payload []byte) error { return install(s, payload, s.run, false) }

// install puts payload into the stage's artifact slots: held when the
// stage's codec holds (redo as the first read's fallback; force reads
// it now), decoded otherwise. A panic guard makes a payload malformed in
// a way the structural checks miss degrade to a recompute, never take
// down the run.
func install(s spec, payload []byte, redo func() (any, error), force bool) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("core: stage %s restore panicked: %v", s.name, p)
		}
	}()
	var v any
	if s.hold != nil {
		v, err = s.hold(payload, redo)
		if l, ok := v.(interface{ Load() error }); ok && err == nil && force {
			err = l.Load()
		}
	} else {
		v, err = s.decode(payload)
	}
	if err != nil {
		return err
	}
	return s.set(v)
}

// RunStage computes the stealable stage name of cfg standalone, through
// exec like any stage of a run (cache may be nil), and returns its
// payload. Its rng stream is split by name from cfg.Seed exactly as a
// run splits it, so the payload is byte-identical to the one the run's
// own stage would store — which is what lets a peer answer a steal.
func RunStage(ctx context.Context, cfg Config, name string, cache StageCache) ([]byte, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	specs, err := stages(cfg, newArtifacts(cfg))
	if err != nil {
		return nil, err
	}
	for _, s := range specs {
		if s.name == name && s.stealable {
			sc := newStageCacher(cache)
			return sc.exec(ctx, cfg, s, sc.key(s), nil, true)
		}
	}
	return nil, fmt.Errorf("core: %q is not a stealable stage of this config", name)
}
