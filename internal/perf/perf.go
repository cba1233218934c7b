// Package perf is the repository's performance-observability harness: a
// registry of micro- and macro-scenarios covering every hot layer of the
// stack (tensor kernels, paramvec fused kernels, nn training steps, the
// Spyker protocol core, the discrete-event simulator, the geo network,
// the live TCP runtime, and the obs subsystem itself), a common timed
// runner that records ns/op, allocs/op, bytes/op and scenario-specific
// counters, and a machine-readable manifest plus regression comparator.
//
// The point is to make performance a versioned, gated artifact: every
// hot-path win (e.g. the PR 2 flat-parameter plane taking ServerAggregate
// to 0 allocs/op) is recorded in a BENCH manifest that cmd/spyker-perf
// can diff against a fresh run, so the next refactor cannot silently
// regress it.
package perf

import (
	"fmt"
	"sort"
)

// Layer names used by the built-in scenarios. A scenario's Layer places
// it in the stack for reporting and for regex selection (-run matches
// layers as well as names).
const (
	LayerTensor     = "tensor"
	LayerParamvec   = "paramvec"
	LayerNN         = "nn"
	LayerSpyker     = "spyker"
	LayerSimulation = "simulation"
	LayerGeo        = "geo"
	LayerTransport  = "transport"
	LayerLive       = "live"
	LayerObs        = "obs"
	LayerLint       = "lint"
)

// Instance is one set-up scenario ready to be timed.
type Instance struct {
	// Step executes one timed repetition. Required.
	Step func()
	// Ops is the number of logical operations one Step performs (e.g. a
	// step that emits 1000 events has Ops = 1000); per-op figures divide
	// by it. Zero means 1.
	Ops int
	// Extras, when non-nil, is sampled once after the timed reps and its
	// values land in the result verbatim (e.g. derived throughput or obs
	// counter readings).
	Extras func() map[string]float64
	// Cleanup, when non-nil, tears the fixture down (closes sockets,
	// stops servers) after measurement.
	Cleanup func()
}

// Scenario is one registered performance scenario.
type Scenario struct {
	// Name uniquely identifies the scenario, conventionally "layer/what"
	// (e.g. "paramvec/axpy"). Matched by the runner's filter.
	Name string
	// Layer is the stack layer the scenario exercises (Layer* constants).
	Layer string
	// Smoke marks the scenario as part of the quick subset selected by
	// the filter "smoke" (CI runs it on every push). Smoke scenarios must
	// be fast and low-variance; the wall-clock-noisy ones (live TCP) stay
	// out.
	Smoke bool
	// Reps overrides the runner's timed repetition count (0 = default).
	Reps int
	// Warmup overrides the runner's warmup repetition count (0 = default).
	Warmup int
	// Setup builds the fixture and returns the instance to time.
	Setup func() (Instance, error)
}

var (
	registry []Scenario
	byName   = map[string]int{}
)

// Register adds a scenario to the global registry. It panics on a
// duplicate or unnamed scenario — both are programming errors in an
// init-time-populated registry.
func Register(s Scenario) {
	if s.Name == "" || s.Layer == "" {
		panic("perf: scenario needs a name and a layer")
	}
	if s.Setup == nil {
		panic(fmt.Sprintf("perf: scenario %q has no Setup", s.Name))
	}
	if _, dup := byName[s.Name]; dup {
		panic(fmt.Sprintf("perf: duplicate scenario %q", s.Name))
	}
	byName[s.Name] = len(registry)
	registry = append(registry, s)
}

// Scenarios returns the registered scenarios sorted by name.
func Scenarios() []Scenario {
	out := append([]Scenario(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Layers returns the distinct layers of the registered scenarios, sorted.
func Layers() []string {
	seen := map[string]bool{}
	for _, s := range registry {
		seen[s.Layer] = true
	}
	out := make([]string, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}
