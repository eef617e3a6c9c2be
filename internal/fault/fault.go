// Package fault is a deterministic fault-injection harness for the
// pipeline's stage graph. An Injector decides — as a pure function of
// (seed, stage name, attempt number) — whether a given stage attempt
// panics, fails with ErrInjected, or is delayed, and applies that
// decision through a parallel.StageMiddleware at the attempt boundary,
// before the stage body runs. Because the decision stream is split off
// its own seed by name, injected chaos is byte-reproducible: the same
// spec produces the same faults at the same attempts for any worker
// count, which is what lets the chaos suite assert that artifacts stay
// byte-identical while stages are panicking and being retried.
package fault

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/parallel"
	"repro/internal/rng"
)

// ErrInjected is the cause of every injected stage error, so tests and
// callers can tell synthetic faults from real ones with errors.Is.
var ErrInjected = errors.New("fault: injected error")

// Spec configures an Injector. Probabilities are evaluated in order
// panic → error → latency from a single uniform draw per (stage,
// attempt): PanicProb+ErrorProb+LatencyProb should not exceed 1.
type Spec struct {
	// Seed of the injector's own rng root; independent of the pipeline
	// seed so chaos placement never perturbs generation streams.
	Seed uint64
	// Stages restricts injection to the named stages (nil/empty = all).
	Stages []string
	// PanicProb is the probability a stage attempt panics.
	PanicProb float64
	// ErrorProb is the probability a stage attempt fails with ErrInjected.
	ErrorProb float64
	// LatencyProb is the probability a stage attempt is delayed by
	// Latency before running (the attempt then proceeds normally).
	LatencyProb float64
	// Latency is the injected delay for latency faults.
	Latency time.Duration

	// Transport faults (netchaos.go), evaluated per peer request from a
	// single uniform draw in order drop → duplicate → delay:
	// NetDropProb+NetDupProb+NetDelayProb should not exceed 1.
	NetDropProb  float64
	NetDupProb   float64
	NetDelayProb float64
	// NetDelay is the injected delay for delayed requests.
	NetDelay time.Duration
	// NetPartitionProb is the probability a directed (src,dst) link is
	// severed for the life of the process — drawn once per link, not per
	// request, so a partitioned pair stays partitioned.
	NetPartitionProb float64
}

// Validate checks the spec's probabilities and delays. The comparisons
// accept only what they prove in range, so a NaN probability, which
// every threshold in Decide would compare false against, is refused.
func (s Spec) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"panic", s.PanicProb}, {"error", s.ErrorProb}, {"latency", s.LatencyProb},
		{"netdrop", s.NetDropProb}, {"netdup", s.NetDupProb}, {"netdelay", s.NetDelayProb},
		{"netpart", s.NetPartitionProb},
	} {
		if !(p.v >= 0 && p.v <= 1) {
			return fmt.Errorf("fault: %s probability %g out of [0,1]", p.name, p.v)
		}
	}
	if sum := s.PanicProb + s.ErrorProb + s.LatencyProb; !(sum <= 1) {
		return fmt.Errorf("fault: probabilities sum to %g > 1", sum)
	}
	if sum := s.NetDropProb + s.NetDupProb + s.NetDelayProb; !(sum <= 1) {
		return fmt.Errorf("fault: net probabilities sum to %g > 1", sum)
	}
	if s.Latency < 0 {
		return fmt.Errorf("fault: negative latency %v", s.Latency)
	}
	if s.NetDelay < 0 {
		return fmt.Errorf("fault: negative net delay %v", s.NetDelay)
	}
	return nil
}

// Enabled reports whether the spec injects stage faults.
func (s Spec) Enabled() bool {
	return s.PanicProb > 0 || s.ErrorProb > 0 || s.LatencyProb > 0
}

// NetEnabled reports whether the spec injects transport faults.
func (s Spec) NetEnabled() bool {
	return s.NetDropProb > 0 || s.NetDupProb > 0 || s.NetDelayProb > 0 || s.NetPartitionProb > 0
}

// Decision is what an Injector decided for one stage attempt.
type Decision int

const (
	None Decision = iota
	Panic
	Error
	Latency
)

func (d Decision) String() string {
	switch d {
	case Panic:
		return "panic"
	case Error:
		return "error"
	case Latency:
		return "latency"
	default:
		return "none"
	}
}

// Injector applies a Spec to stage attempts. Safe for concurrent use:
// decisions derive from named splits of an immutable root (SplitNamed
// never advances its parent), and the counters are atomic.
type Injector struct {
	spec   Spec
	root   *rng.RNG
	scoped map[string]bool

	panics  atomic.Int64
	errs    atomic.Int64
	delays  atomic.Int64
	decided atomic.Int64
}

// New builds an Injector for spec. The spec must validate.
func New(spec Spec) (*Injector, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	in := &Injector{spec: spec, root: rng.New(spec.Seed)}
	if len(spec.Stages) > 0 {
		in.scoped = make(map[string]bool, len(spec.Stages))
		for _, s := range spec.Stages {
			in.scoped[s] = true
		}
	}
	return in, nil
}

// Decide returns the injector's decision for one (stage, attempt) pair.
// Pure and deterministic: the same triple (seed, stage, attempt) always
// yields the same decision, independent of call order, wall clock, or
// concurrency.
func (in *Injector) Decide(stage string, attempt int) Decision {
	if in.scoped != nil && !in.scoped[stage] {
		return None
	}
	u := in.root.SplitNamed(fmt.Sprintf("%s/attempt-%d", stage, attempt)).Float64()
	switch {
	case u < in.spec.PanicProb:
		return Panic
	case u < in.spec.PanicProb+in.spec.ErrorProb:
		return Error
	case u < in.spec.PanicProb+in.spec.ErrorProb+in.spec.LatencyProb:
		return Latency
	default:
		return None
	}
}

// Middleware adapts the injector to the stage graph: the fault (if any)
// fires at the top of the attempt, before the stage body runs, so a
// retried stage always re-executes from untouched state.
func (in *Injector) Middleware() parallel.StageMiddleware {
	return func(stage string, attempt int, run func() error) error {
		in.decided.Add(1)
		switch in.Decide(stage, attempt) {
		case Panic:
			in.panics.Add(1)
			panic(fmt.Sprintf("fault: injected panic in %s attempt %d", stage, attempt))
		case Error:
			in.errs.Add(1)
			return fmt.Errorf("fault: stage %s attempt %d: %w", stage, attempt, ErrInjected)
		case Latency:
			in.delays.Add(1)
			if in.spec.Latency > 0 {
				time.Sleep(in.spec.Latency)
			}
		}
		return run()
	}
}

// Counts reports how many faults of each kind have fired so far.
func (in *Injector) Counts() (panics, errs, delays int64) {
	return in.panics.Load(), in.errs.Load(), in.delays.Load()
}

// Attempts reports how many stage attempts the injector has seen.
func (in *Injector) Attempts() int64 { return in.decided.Load() }

// ParseSpec parses the rcpt-serve -chaos flag syntax: a comma-separated
// key=value list, e.g.
//
//	seed=7,panic=0.1,error=0.2,latency=0.1,delay=20ms,stages=trace-2011|rake-2024
//
// Transport faults use the net* keys (applied to peer traffic when the
// replica is clustered):
//
//	seed=7,netdrop=0.1,netdup=0.05,netdelay=0.2,netlag=20ms,netpart=0.02
//
// Unknown keys are rejected. An empty string parses to a disabled spec.
func ParseSpec(s string) (Spec, error) {
	var spec Spec
	s = strings.TrimSpace(s)
	if s == "" {
		return spec, nil
	}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return Spec{}, fmt.Errorf("fault: bad spec term %q (want key=value)", kv)
		}
		var err error
		switch k {
		case "seed":
			spec.Seed, err = strconv.ParseUint(v, 10, 64)
		case "panic":
			spec.PanicProb, err = strconv.ParseFloat(v, 64)
		case "error":
			spec.ErrorProb, err = strconv.ParseFloat(v, 64)
		case "latency":
			spec.LatencyProb, err = strconv.ParseFloat(v, 64)
		case "delay":
			spec.Latency, err = time.ParseDuration(v)
		case "netdrop":
			spec.NetDropProb, err = strconv.ParseFloat(v, 64)
		case "netdup":
			spec.NetDupProb, err = strconv.ParseFloat(v, 64)
		case "netdelay":
			spec.NetDelayProb, err = strconv.ParseFloat(v, 64)
		case "netlag":
			spec.NetDelay, err = time.ParseDuration(v)
		case "netpart":
			spec.NetPartitionProb, err = strconv.ParseFloat(v, 64)
		case "stages":
			spec.Stages = strings.Split(v, "|")
			sort.Strings(spec.Stages)
		default:
			return Spec{}, fmt.Errorf("fault: unknown spec key %q", k)
		}
		if err != nil {
			return Spec{}, fmt.Errorf("fault: bad value for %q: %v", k, err)
		}
	}
	if err := spec.Validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}
