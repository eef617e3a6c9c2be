package core

// Content-addressed renders. An experiment's render key names the bytes
// it renders, not the run it renders from:
//
//	SHA-256("rcpt-render/1" ‖ experiment ID ‖ version tag
//	        ‖ config fields it reads directly ‖ sorted keys of the stages it reads)
//
// derived by deriveKey exactly as a stage's Merkle key is, from the
// registry entry's reads, config and version. Two configs whose runs
// differ only in stages an experiment does not read give it the same
// key, so a what-if run re-renders only the experiments its change
// reaches. The declarations must cover every read: an undeclared one
// would serve another run's bytes, which is why the registry tests
// render each experiment from its declared stages alone.

import (
	"fmt"
	"slices"
	"strings"
)

// renderKeyVersion versions the render-key derivation: bumping it
// orphans every rendered body a render cache holds.
const renderKeyVersion = "rcpt-render/1"

// RenderKeys returns every experiment's render key for cfg, by ID. It
// builds the stage specs and derives their keys without running any,
// so it depends on the config alone.
func RenderKeys(cfg Config) (map[string]string, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	specs, err := stages(cfg, newArtifacts(cfg))
	if err != nil {
		return nil, err
	}
	sc := newStageCacher(nil)
	for _, s := range specs {
		sc.key(s)
	}
	keys := make(map[string]string, len(registry))
	for _, e := range registry {
		var ups []string
		for _, s := range specs {
			if !e.readsStage(s.name) {
				continue
			}
			k, ok := sc.keys[s.name]
			if !ok {
				return nil, fmt.Errorf("core: %s reads %s, which has no stage key", e.ID, s.name)
			}
			ups = append(ups, k)
		}
		inputs, err := configSubset(cfg, e.config)
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", e.ID, err)
		}
		keys[e.ID] = deriveKey(renderKeyVersion, e.ID, e.version, inputs, ups)
	}
	return keys, nil
}

// readsStage reports whether e declares that it reads stage name. A
// declared name absent from a config (the panel, with PanelN 0) adds no
// key; the experiment then fails to render rather than rendering stale.
func (e Experiment) readsStage(name string) bool {
	return slices.ContainsFunc(e.reads, func(read string) bool { return covers(read, name) })
}

// covers reports whether a declared read — an exact stage name, or a
// family prefix ending in "*" — names stage.
func covers(read, stage string) bool {
	prefix, family := strings.CutSuffix(read, "*")
	return stage == read || family && strings.HasPrefix(stage, prefix)
}
