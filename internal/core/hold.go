package core

// Held stages. A stage-cache hit keeps its payload — shared and
// read-only, as the store hands it out — and decodes it only when
// something first reads it. Trace and telemetry tables hold themselves
// (table.Held: envelope and row count checked at hold, columns decoded
// on first scan). The three sims and the panel check their payload at
// hold and register the rest of their decode here, on the Artifacts:
// a registry render loads the held stages its reads declare before it
// builds (experiments.go), once per Artifacts. A first read that fails
// recomputes the stage through its body, under the same once.

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/population"
	"repro/internal/trace"
)

// heldLoads is the deferred loads of an Artifacts' held stages.
type heldLoads struct {
	mu    sync.Mutex
	loads map[string]*heldLoad // by stage name
}

// heldLoad is one held stage's load, run once on first read.
type heldLoad struct {
	once sync.Once
	load func() error
	err  error
}

// hold registers load as stage's deferred load.
func (a *Artifacts) hold(stage string, load func() error) {
	a.held.mu.Lock()
	defer a.held.mu.Unlock()
	if a.held.loads == nil {
		a.held.loads = map[string]*heldLoad{}
	}
	a.held.loads[stage] = &heldLoad{load: load}
}

// load runs the deferred load of every held stage reads names, in
// stage-name order, and returns the first error.
func (a *Artifacts) load(reads func(stage string) bool) error {
	a.held.mu.Lock()
	names := make([]string, 0, len(a.held.loads))
	for name := range a.held.loads {
		if reads(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	loads := make([]*heldLoad, len(names))
	for i, name := range names {
		loads[i] = a.held.loads[name]
	}
	a.held.mu.Unlock()
	for _, l := range loads {
		// The error set first is what a panicking load leaves.
		l.once.Do(func() {
			l.err = fmt.Errorf("core: loading a held stage panicked")
			l.err = l.load()
		})
		if l.err != nil {
			return l.err
		}
	}
	return nil
}

// holdSim is a sim stage's hold: it walks the payload with every check
// its decode makes, keeps the metrics in the result the run publishes,
// and defers the job results, the samples and the join against feed to
// the first read, which fills the same result in place.
func (a *Artifacts) holdSim(stage string, feed func() trace.JobTable) func([]byte, func() (simOutput, error)) (simOutput, error) {
	return func(payload []byte, redo func() (simOutput, error)) (simOutput, error) {
		held, err := readSimPayload(payload, false)
		if err != nil {
			return simOutput{}, err
		}
		res := held.res
		a.hold(stage, func() error {
			o, err := guarded(stage, func() (simOutput, error) {
				o, err := decodeSimPayload(payload)
				if err == nil {
					err = o.join(feed())
				}
				return o, err
			})
			if err != nil && redo != nil {
				o, err = recomputed(stage, err, redo)
				if err == nil && o.res.Metrics != res.Metrics {
					err = fmt.Errorf("core: %s recomputed other metrics than its held payload's", stage)
				}
			}
			if err != nil {
				return err
			}
			res.Results, res.Samples = o.res.Results, o.res.Samples
			return nil
		})
		return simOutput{res: res}, nil
	}
}

// holdPanel is the panel stage's hold: it checks the payload's kind and
// defers the decode of the members to the first read.
func (a *Artifacts) holdPanel(payload []byte, redo func() ([]population.PanelMember, error)) ([]population.PanelMember, error) {
	if _, err := openPayload(payload, payloadPanel); err != nil {
		return nil, err
	}
	a.hold("panel", func() error {
		members, err := guarded("panel", func() ([]population.PanelMember, error) { return decodePanelPayload(payload) })
		if err != nil && redo != nil {
			members, err = recomputed("panel", err, redo)
		}
		if err != nil {
			return err
		}
		a.Panel = members
		return nil
	})
	return nil, nil
}

// guarded runs a held stage's first-read decode under a panic guard, as
// restore runs its hold: a payload malformed in a way its checks miss
// recomputes, never takes down a render.
func guarded[T any](stage string, decode func() (T, error)) (v T, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("core: %s first read panicked: %v", stage, p)
		}
	}()
	return decode()
}

// recomputed is a held stage's output from redo after its first read
// failed with err.
func recomputed[T any](stage string, err error, redo func() (T, error)) (T, error) {
	v, rerr := redo()
	if rerr != nil {
		return v, fmt.Errorf("core: %s: %w; recompute: %w", stage, err, rerr)
	}
	return v, nil
}
