// Package timeline is the deterministic flight recorder: it samples the
// simulated machine at region-boundary granularity (per-core frequency,
// uncore frequency, instructions retired, RAPL energy, IPC, miss-demand
// EWMA) and records governor decision events (DVFS/UFS transitions, TIPI
// slab-table updates, exploration-vs-exploitation, memo prefix restores)
// into bounded ring buffers.
//
// A timeline is a pure function of simulation state: every sample and
// event derives from simulated time and simulated counters, never wall
// clock, so two runs of one spec produce byte-identical timelines.
// Like spans and metrics (internal/obs), timelines live strictly outside
// the determinism/cache boundary: they are excluded from canonical report
// bytes, spec hashes and memo prefix keys, and a nil *Recorder makes
// every call a no-op so the disabled path allocates nothing.
package timeline

import (
	"bytes"
	"encoding/json"
	"io"
	"sort"
	"sync"
)

// Default ring capacities. At the paper's Tinv (20 ms) an 80 s run ticks
// its daemon 4000 times and crosses a few hundred region boundaries, so
// the defaults hold a full paper-scale run without truncation.
const (
	DefaultMaxSamples = 4096
	DefaultMaxEvents  = 16384
)

// Event kinds. Decision events come from governor code (the daemon, the
// ondemand sampler, the fixed-setting strategies at attach time); the
// memo-restore marker comes from the prefix-resume path.
const (
	// KindAttach marks a governor taking control of the machine.
	KindAttach = "attach"
	// KindDVFS is a core-frequency actuation (all cores for the daemon,
	// Core-tagged for per-core strategies). From/To are ratios.
	KindDVFS = "dvfs"
	// KindUFS is an uncore-frequency actuation. From/To are ratios.
	KindUFS = "ufs"
	// KindDDCM is a duty-cycle modulation write; To is the level.
	KindDDCM = "ddcm"
	// KindSlabInsert is a new TIPI slab entering the daemon's table.
	KindSlabInsert = "slab-insert"
	// KindCFOpt marks a slab's core-frequency optimum resolving; To is
	// the chosen ratio.
	KindCFOpt = "cf-opt"
	// KindUFOpt marks a slab's uncore-frequency optimum resolving; To is
	// the chosen ratio.
	KindUFOpt = "uf-opt"
	// KindExplore is one daemon interval spent with the current slab's
	// optima unresolved — the paper's exploration cost, one event per
	// exploring Tinv sample.
	KindExplore = "explore"
	// KindMemoRestore marks a run resuming from a memoized prefix
	// snapshot; From is the number of regions skipped.
	KindMemoRestore = "memo-restore"
)

// Sample is one machine observation at a region-boundary quiescent cut.
// All fields are simulated quantities; counters are cumulative since
// boot, IPC is the aggregate instructions-per-cycle over the interval
// since the previous sample in the same lane.
type Sample struct {
	T          float64 `json:"t"`        // simulated seconds
	Boundary   int     `json:"boundary"` // completed-region count
	Cores      []int   `json:"cores"`    // per-core frequency ratios
	Uncore     int     `json:"uncore"`   // uncore frequency ratio
	SumCoreGHz float64 `json:"sum_core_ghz"`
	Instr      float64 `json:"instr"`
	IPC        float64 `json:"ipc"`
	EnergyJ    float64 `json:"energy_j"`
	MissLocal  float64 `json:"miss_local"`
	MissRemote float64 `json:"miss_remote"`
	DemandEWMA float64 `json:"demand_ewma"`
}

// Event is one governor (or memo) decision, stamped with simulated time.
// Field meaning depends on Kind; unused numeric fields are zero.
type Event struct {
	T    float64 `json:"t"`
	Kind string  `json:"kind"`
	Core int     `json:"core"`
	From int     `json:"from"`
	To   int     `json:"to"`
	Slab int     `json:"slab"`
	Note string  `json:"note,omitempty"`
}

// Convergence reduces one or more timelines to the paper's
// exploration-cost story: how long until the governor stopped moving
// frequencies, how many intervals it spent exploring, and how much energy
// the run had consumed by the time it went stable.
type Convergence struct {
	// Runs is how many lanes (repetitions) contributed.
	Runs int `json:"runs"`
	// TimeToStableSec is the simulated time of the last
	// frequency-affecting decision (dvfs, ufs, ddcm, explore), averaged
	// across lanes. 0 means the governor never moved after attach.
	TimeToStableSec float64 `json:"time_to_stable_sec"`
	// ExplorationQuanta counts daemon intervals spent with unresolved
	// optima, summed across lanes.
	ExplorationQuanta int `json:"exploration_quanta"`
	// ExplorationEnergyJ is the cumulative energy at the first sample at
	// or after stabilisation, summed across lanes — the joules the run
	// had burned before settling at its chosen operating points.
	ExplorationEnergyJ float64 `json:"exploration_energy_j"`
}

// Add folds another convergence summary in, averaging TimeToStableSec by
// run count and summing the totals.
func (c *Convergence) Add(o Convergence) {
	if o.Runs == 0 {
		return
	}
	if c.Runs+o.Runs > 0 {
		c.TimeToStableSec = (c.TimeToStableSec*float64(c.Runs) + o.TimeToStableSec*float64(o.Runs)) / float64(c.Runs+o.Runs)
	}
	c.Runs += o.Runs
	c.ExplorationQuanta += o.ExplorationQuanta
	c.ExplorationEnergyJ += o.ExplorationEnergyJ
}

// Recorder is one timeline lane plus any child lanes (one per
// repetition, mirroring trace span lanes). Create the root with New,
// split per-repetition lanes with Lane, record with AddSample/AddEvent,
// export with Export, JSON or WriteJSON. All methods are nil-safe so the
// recording and non-recording code paths are the same path. Recording
// methods lock, so concurrent repetitions may share a root — though each
// lane is normally owned by one simulation goroutine.
type Recorder struct {
	id         string
	name       string
	order      int
	maxSamples int
	maxEvents  int

	mu       sync.Mutex
	samples  []Sample // ring storage, oldest at sStart
	sStart   int
	sDropped uint64
	events   []Event
	eStart   int
	eDropped uint64
	lanes    map[string]*Recorder

	// Latest-sample memory for IPC deltas, independent of truncation.
	last     Sample
	haveLast bool

	// Convergence accounting, independent of ring truncation.
	exploreQuanta  int
	lastUnstableT  float64
	energyAtStable float64
	energyCaptured bool
	active         bool // any sample or event recorded
}

// New returns a root recorder with default ring capacities. id is the
// run's identity (the spec content hash when known); it names the
// exported timeline the way a trace ID names a trace.
func New(id string) *Recorder { return NewWithCaps(id, 0, 0) }

// NewWithCaps is New with explicit ring capacities (0 = default,
// minimum 1 each).
func NewWithCaps(id string, maxSamples, maxEvents int) *Recorder {
	if maxSamples <= 0 {
		maxSamples = DefaultMaxSamples
	}
	if maxEvents <= 0 {
		maxEvents = DefaultMaxEvents
	}
	return &Recorder{id: id, maxSamples: maxSamples, maxEvents: maxEvents}
}

// Lane returns the named child lane, creating it on first use. order
// fixes the lane's position in exports (repetition index), so export
// bytes are deterministic however concurrently lanes were created.
// Nil-safe: a nil recorder returns nil, so disabled runs thread through.
func (r *Recorder) Lane(name string, order int) *Recorder {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.lanes == nil {
		r.lanes = make(map[string]*Recorder)
	}
	if ln, ok := r.lanes[name]; ok {
		return ln
	}
	ln := &Recorder{name: name, order: order, maxSamples: r.maxSamples, maxEvents: r.maxEvents}
	r.lanes[name] = ln
	return ln
}

// AddSample appends one machine observation. When the sample's IPC is
// unset it is derived from the delta against the lane's previous sample.
// A full ring drops the oldest sample and counts it. Nil-safe.
func (r *Recorder) AddSample(s Sample) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.active = true
	if s.IPC == 0 && r.haveLast && s.T > r.last.T && s.SumCoreGHz > 0 {
		s.IPC = (s.Instr - r.last.Instr) / ((s.T - r.last.T) * s.SumCoreGHz * 1e9)
	}
	r.last, r.haveLast = s, true
	if !r.energyCaptured && s.T >= r.lastUnstableT {
		r.energyAtStable = s.EnergyJ
		r.energyCaptured = true
	}
	if len(r.samples) < r.maxSamples {
		r.samples = append(r.samples, s)
		return
	}
	r.samples[r.sStart] = s
	r.sStart = (r.sStart + 1) % r.maxSamples
	r.sDropped++
}

// AddEvent appends one decision event. Convergence counters update on
// every event even when the ring later truncates it. Nil-safe.
func (r *Recorder) AddEvent(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.active = true
	switch e.Kind {
	case KindExplore:
		r.exploreQuanta++
		r.markUnstable(e.T)
	case KindDVFS, KindUFS, KindDDCM:
		r.markUnstable(e.T)
	}
	if len(r.events) < r.maxEvents {
		r.events = append(r.events, e)
		return
	}
	r.events[r.eStart] = e
	r.eStart = (r.eStart + 1) % r.maxEvents
	r.eDropped++
}

// markUnstable records a frequency-affecting decision; callers hold r.mu.
func (r *Recorder) markUnstable(t float64) {
	if t > r.lastUnstableT {
		r.lastUnstableT = t
	}
	r.energyCaptured = false
}

// Convergence reduces this recorder and its lanes to the per-run
// convergence summary. Nil and empty recorders report zero runs.
func (r *Recorder) Convergence() Convergence {
	var c Convergence
	if r == nil {
		return c
	}
	r.mu.Lock()
	if r.active {
		own := Convergence{
			Runs:              1,
			TimeToStableSec:   r.lastUnstableT,
			ExplorationQuanta: r.exploreQuanta,
		}
		if r.energyCaptured {
			own.ExplorationEnergyJ = r.energyAtStable
		} else if r.haveLast {
			// The run ended before a sample followed the last decision;
			// the final sample's energy is the closest bound.
			own.ExplorationEnergyJ = r.last.EnergyJ
		}
		c.Add(own)
	}
	lanes := r.sortedLanesLocked()
	r.mu.Unlock()
	for _, ln := range lanes {
		c.Add(ln.Convergence())
	}
	return c
}

// LaneExport is one lane of the exported timeline.
type LaneExport struct {
	Lane           string   `json:"lane"`
	DroppedSamples uint64   `json:"dropped_samples"`
	DroppedEvents  uint64   `json:"dropped_events"`
	Samples        []Sample `json:"samples"`
	Events         []Event  `json:"events"`
}

// Export is the versioned timeline document WriteJSON emits.
type Export struct {
	Version     int          `json:"version"`
	ID          string       `json:"id,omitempty"`
	MaxSamples  int          `json:"max_samples"`
	MaxEvents   int          `json:"max_events"`
	Lanes       []LaneExport `json:"lanes"`
	Convergence Convergence  `json:"convergence"`
}

// sortedLanesLocked returns the child lanes ordered by (order, name);
// callers hold r.mu.
func (r *Recorder) sortedLanesLocked() []*Recorder {
	if len(r.lanes) == 0 {
		return nil
	}
	out := make([]*Recorder, 0, len(r.lanes))
	for _, ln := range r.lanes {
		out = append(out, ln)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].order != out[j].order {
			return out[i].order < out[j].order
		}
		return out[i].name < out[j].name
	})
	return out
}

// ringSamples returns the ring's contents oldest-first; callers hold r.mu.
func (r *Recorder) ringSamplesLocked() []Sample {
	out := make([]Sample, 0, len(r.samples))
	for i := 0; i < len(r.samples); i++ {
		out = append(out, r.samples[(r.sStart+i)%len(r.samples)])
	}
	return out
}

func (r *Recorder) ringEventsLocked() []Event {
	out := make([]Event, 0, len(r.events))
	for i := 0; i < len(r.events); i++ {
		out = append(out, r.events[(r.eStart+i)%len(r.events)])
	}
	return out
}

// exportInto flattens this recorder (when active) and its lanes,
// depth-first in deterministic order, into out.
func (r *Recorder) exportInto(prefix string, out *[]LaneExport) {
	r.mu.Lock()
	name := prefix
	if r.name != "" {
		if name != "" {
			name += "/"
		}
		name += r.name
	}
	if r.active {
		*out = append(*out, LaneExport{
			Lane:           name,
			DroppedSamples: r.sDropped,
			DroppedEvents:  r.eDropped,
			Samples:        r.ringSamplesLocked(),
			Events:         r.ringEventsLocked(),
		})
	}
	lanes := r.sortedLanesLocked()
	r.mu.Unlock()
	for _, ln := range lanes {
		ln.exportInto(name, out)
	}
}

// Export returns the structural form: active lanes in deterministic
// (order, name) order plus the convergence summary. A nil recorder
// exports an empty document.
func (r *Recorder) Export() Export {
	ex := Export{Version: 1, Lanes: []LaneExport{}}
	if r == nil {
		return ex
	}
	r.mu.Lock()
	ex.ID = r.id
	ex.MaxSamples = r.maxSamples
	ex.MaxEvents = r.maxEvents
	r.mu.Unlock()
	r.exportInto("", &ex.Lanes)
	ex.Convergence = r.Convergence()
	return ex
}

// JSON renders the export as indented JSON. The encoding is
// deterministic — fixed field order, strconv float formatting — so equal
// timelines render to equal bytes (the property cmd/cuttlefish's
// TestTimelineOutDeterministic compares).
func (r *Recorder) JSON() ([]byte, error) {
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// WriteJSON writes the JSON export to w.
func (r *Recorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(r.Export())
}
