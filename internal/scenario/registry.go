// Package scenario is the pluggable workload registry: every workload
// the repository can simulate — the ten Table 1 benchmarks, the built-in
// synthetic scenarios, and user-authored JSON phase programs — is one
// registered Entry behind a single Build interface, exactly the way
// internal/governor makes frequency-control strategies pluggable.
//
// The registry decouples what runs (a workload.Source generator) from
// how it is named and served: the experiment harnesses, the service
// layer's RunSpec hashing, the sweep orchestrator's axes and the CLI
// resolve workloads only through this registry, so opening a new
// scenario is one Register call (or one JSON file), never another
// hand-wired benchmark list.
package scenario

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/workload"
)

// Kind says where an entry came from; listings group by it.
type Kind string

const (
	// KindBench marks the Table 1 benchmarks internal/bench registers.
	KindBench Kind = "bench"
	// KindSynthetic marks the built-in DSL-generated scenarios.
	KindSynthetic Kind = "synthetic"
)

// Params parametrise scenario construction; they mirror bench.Params so
// any registered workload builds from the same run options.
type Params struct {
	// Cores is the simulated core count the source will feed.
	Cores int
	// Scale multiplies the instruction budget (1.0 = nominal length).
	Scale float64
	// Seed drives every random choice; a scenario is a pure function of
	// (its definition, Params), so equal Params reproduce equal runs.
	Seed int64
	// Model names the task runtime for task-DAG decompositions
	// ("openmp" or "hclib"); work-sharing scenarios ignore it.
	Model string
}

// Entry is one registered workload.
type Entry struct {
	// Name is the registry name the workload answers to.
	Name string
	// Kind groups the entry in listings.
	Kind Kind
	// Description is the one-line listing text.
	Description string
	// NominalSeconds approximates the Default-environment wall time at
	// Scale 1; harnesses size their simulation deadline from it.
	NominalSeconds float64
	// Build instantiates the workload source for one run.
	Build func(p Params) (workload.Source, error)
	// Payload carries registrar-private data opaquely (internal/bench
	// stores its Spec here so bench.Get stays a thin view).
	Payload any
	// Def is the normalized DSL definition behind the entry, when the
	// workload is a phase program (built-in synthetics, user scenario
	// files). It is what makes an entry memoizable: the prefix-snapshot
	// tier derives its region chain from the definition. Entries built
	// any other way (benchmarks with stateful generators, composites
	// like corun-mix) leave it nil and always simulate from t=0.
	Def *Definition
}

// Info is the serializable face of an entry, served at /v1/scenarios.
type Info struct {
	Name        string `json:"name"`
	Kind        Kind   `json:"kind"`
	Description string `json:"description,omitempty"`
}

var (
	regMu    sync.RWMutex
	registry []Entry
	byName   = map[string]int{}
)

// Register adds a workload to the registry, preserving registration
// order (bench registers in Table 1 order, and listings keep it).
// Duplicate names are rejected so two packages cannot silently shadow
// each other's workloads.
func Register(e Entry) error {
	if e.Name == "" || e.Build == nil {
		return errors.New("scenario: Register needs a name and a builder")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := byName[e.Name]; dup {
		return fmt.Errorf("scenario: %q already registered", e.Name)
	}
	byName[e.Name] = len(registry)
	registry = append(registry, e)
	return nil
}

// MustRegister is Register for init-time built-ins.
func MustRegister(e Entry) {
	if err := Register(e); err != nil {
		panic(err)
	}
}

// Get looks a workload up by name.
func Get(name string) (Entry, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	i, ok := byName[name]
	if !ok {
		return Entry{}, false
	}
	return registry[i], true
}

// Exists reports whether name is registered, without building anything.
// Request validators use it to reject typos before simulation time.
func Exists(name string) bool {
	regMu.RLock()
	defer regMu.RUnlock()
	_, ok := byName[name]
	return ok
}

// Names returns every registered name in registration order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.Name
	}
	return out
}

// NamesOf returns the registered names of one kind, in registration
// order; bench.Names() is this for KindBench.
func NamesOf(kind Kind) []string {
	regMu.RLock()
	defer regMu.RUnlock()
	var out []string
	for _, e := range registry {
		if e.Kind == kind {
			out = append(out, e.Name)
		}
	}
	return out
}

// List snapshots every entry's Info in registration order.
func List() []Info {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Info, len(registry))
	for i, e := range registry {
		out[i] = Info{Name: e.Name, Kind: e.Kind, Description: e.Description}
	}
	return out
}
