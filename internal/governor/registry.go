// Governor registry: every frequency-control strategy the repository
// simulates — the paper's three Cuttlefish variants, the Default
// environment, the fixed-frequency oracle settings, the DDCM baseline and
// the reactive Linux-style governors — is one registered implementation of
// a single Governor interface. The public Session API, the harnesses and
// the CLI construct strategies only through this registry, so adding a
// scenario is one Register call, never another hand-wired daemon/governor
// branch.
package governor

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/freq"
	"repro/internal/machine"
)

// Governor is one frequency-control strategy. Attach installs the strategy
// on a machine — saving the MSR state it will touch, writing initial
// frequencies, scheduling any periodic component (a Cuttlefish daemon, a
// reactive sampler, a firmware model) — and returns an Attachment whose
// Detach undoes all of it. Implementations must be safe to attach to many
// machines concurrently: all per-run state lives in the Attachment.
type Governor interface {
	// Name is the registry name the strategy answers to.
	Name() string
	// Attach installs the strategy on m. The returned Attachment's Detach
	// restores the MSR state captured at Attach unconditionally, even when
	// the strategy itself failed mid-run.
	Attach(m *machine.Machine) (*Attachment, error)
}

// Attachment is one governor attached to one machine: the msr-safe
// Save/Restore bracket plus whatever the strategy scheduled. Every run
// path detaches through it, so cleanup is uniform across the public
// Session API and the experiment harnesses.
type Attachment struct {
	mu           sync.Mutex
	detach       func() error
	daemon       *core.Daemon
	done         bool
	stateSnap    func() ([]byte, error)
	stateRestore func([]byte) error
}

// newAttachment wraps a strategy's teardown. detach runs exactly once;
// later Detach calls return nil, mirroring Session.Stop's idempotence.
func newAttachment(daemon *core.Daemon, detach func() error) *Attachment {
	return &Attachment{detach: detach, daemon: daemon}
}

// withState installs the strategy's state snapshot/restore hooks.
// Strategies whose only mutable state is MSR registers (default, static,
// ddcm, powersave) never call it — their state rides in the machine
// snapshot — while daemon-backed and sampler-backed strategies export
// their private state through these hooks so a prefix-resumed run
// continues from exactly the adaptive state the snapshot captured.
func (a *Attachment) withState(snap func() ([]byte, error), restore func([]byte) error) *Attachment {
	a.stateSnap = snap
	a.stateRestore = restore
	return a
}

// StateSnapshot exports the strategy's private mutable state as a blob
// in the strategy's fixed binary layout (core.DaemonState's for the
// daemon-backed strategies, the sampler's for ondemand; nil for
// stateless strategies). Equal states give equal bytes. Together with a
// machine.Snapshot taken at the same boundary it fully determines the
// rest of the run.
func (a *Attachment) StateSnapshot() ([]byte, error) {
	if a.stateSnap == nil {
		return nil, nil
	}
	return a.stateSnap()
}

// StateRestore re-imports a blob produced by StateSnapshot on an
// attachment of the same strategy and tuning, after which StateSnapshot
// returns the same bytes. A blob that is not exactly that layout, or
// holds a value the strategy's write path never produces (a level or
// ratio off the machine's grids, another core count), is refused and
// leaves the strategy as it was. A non-empty blob handed to a stateless
// strategy is a strategy mismatch and errors.
func (a *Attachment) StateRestore(blob []byte) error {
	if a.stateRestore == nil {
		if len(blob) > 0 {
			return errors.New("governor: state blob for a stateless strategy")
		}
		return nil
	}
	return a.stateRestore(blob)
}

// Daemon returns the Cuttlefish daemon driving this attachment, or nil for
// strategies that run without one (default, static, ddcm, powersave,
// ondemand). Harnesses use it for slab-list reporting.
func (a *Attachment) Daemon() *core.Daemon { return a.daemon }

// Detach removes the governor from the machine and restores the MSR state
// captured at Attach. The restore happens unconditionally — a daemon error
// no longer leaks pinned frequencies — and any strategy error is reported
// alongside a restore failure. Detach is idempotent.
func (a *Attachment) Detach() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.done {
		return nil
	}
	a.done = true
	return a.detach()
}

// Tuning carries the per-run parameters a strategy may honour; strategies
// ignore fields that do not apply to them. The zero value means "use the
// governor's defaults" throughout.
type Tuning struct {
	// TinvSec is the Cuttlefish daemon's profiling interval (0 = 20 ms) and
	// the ondemand governor's sampling period.
	TinvSec float64
	// WarmupSec delays the Cuttlefish loop past the cold start (0 = the
	// paper's 2 s; negative = no warmup).
	WarmupSec float64
	// CF and UF pin the static governor's core and uncore ratios
	// (0 = the grid maximum).
	CF, UF freq.Ratio
	// DDCMLevel is the duty-cycle step of the ddcm governor
	// (0 = level 6, the paper-matched ≈70% throttle).
	DDCMLevel uint8
}

// DaemonConfig resolves the tuning against the paper's deployment
// defaults: zero fields keep the defaults, negative WarmupSec disables the
// warmup. Every daemon-backed run path resolves its configuration through
// this one function, so WarmupSec means the same thing everywhere.
func (t Tuning) DaemonConfig(policy core.Policy) core.Config {
	cfg := core.DefaultConfig()
	cfg.Policy = policy
	if t.TinvSec > 0 {
		cfg.TinvSec = t.TinvSec
	}
	if t.WarmupSec > 0 {
		cfg.WarmupSec = t.WarmupSec
	} else if t.WarmupSec < 0 {
		cfg.WarmupSec = 0
	}
	return cfg
}

// Factory builds a governor from per-run tuning. Registered factories must
// be pure: every call returns an independent value.
type Factory func(t Tuning) (Governor, error)

// The built-in registry names.
const (
	// Default is the paper's baseline: performance governor + firmware
	// Auto uncore.
	Default = "default"
	// Cuttlefish, CuttlefishCore and CuttlefishUncore are the paper's
	// three build-time library variants (§5).
	Cuttlefish       = "cuttlefish"
	CuttlefishCore   = "cuttlefish-core"
	CuttlefishUncore = "cuttlefish-uncore"
	// Static pins both domains at fixed ratios (the Fig. 2/Fig. 3
	// methodology and the oracle sweeps).
	Static = "static"
	// DDCM throttles with duty-cycle modulation at full voltage, the
	// Bhalachandra et al. knob the paper's DVFS choice is judged against.
	DDCM = "ddcm"
	// Powersave pins both domains at their grid minima.
	Powersave = "powersave"
	// Ondemand is a Linux-ondemand-style reactive governor: per-core DVFS
	// driven by sampled instruction throughput.
	Ondemand = "ondemand"
)

// CuttlefishVariants are the three library builds compared against Default
// throughout §5, in report order.
var CuttlefishVariants = []string{Cuttlefish, CuttlefishCore, CuttlefishUncore}

// Info is the serializable face of a registered strategy: the name it
// answers to and a one-line description for listings (-list-governors,
// /v1/governors, fuzz findings reports). Description may be empty for
// strategies registered through the bare Register path.
type Info struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
}

type regEntry struct {
	factory     Factory
	description string
}

var (
	regMu    sync.RWMutex
	registry = map[string]regEntry{}
)

// Register adds a named strategy to the registry with no listing
// description. Duplicate names are rejected so two packages cannot
// silently shadow each other's strategies.
func Register(name string, f Factory) error {
	return RegisterInfo(name, "", f)
}

// RegisterInfo is Register plus a one-line description for listings.
func RegisterInfo(name, description string, f Factory) error {
	if name == "" || f == nil {
		return errors.New("governor: Register needs a name and a factory")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		return fmt.Errorf("governor: %q already registered", name)
	}
	registry[name] = regEntry{factory: f, description: description}
	return nil
}

// MustRegister is Register for init-time built-ins.
func MustRegister(name string, f Factory) {
	if err := Register(name, f); err != nil {
		panic(err)
	}
}

// mustRegisterInfo is RegisterInfo for the built-ins below.
func mustRegisterInfo(name, description string, f Factory) {
	if err := RegisterInfo(name, description, f); err != nil {
		panic(err)
	}
}

// New constructs the named strategy with the given tuning. Unknown names
// list the registry so CLI typos are self-diagnosing.
func New(name string, t Tuning) (Governor, error) {
	regMu.RLock()
	e, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("governor: unknown governor %q (registered: %v)", name, Names())
	}
	return e.factory(t)
}

// Exists reports whether name is a registered strategy, without
// constructing it. Request validators use it to reject typos before any
// simulation time is spent.
func Exists(name string) bool {
	regMu.RLock()
	defer regMu.RUnlock()
	_, ok := registry[name]
	return ok
}

// Names returns the registered strategy names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// List snapshots every registered strategy's Info in sorted-name order —
// the stable order listings and the fuzz findings report key on.
func List() []Info {
	names := Names()
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Info, len(names))
	for i, n := range names {
		out[i] = Info{Name: n, Description: registry[n].description}
	}
	return out
}

func init() {
	mustRegisterInfo(Default, "paper baseline: performance governor, firmware Auto uncore", func(Tuning) (Governor, error) {
		return defaultGovernor{}, nil
	})
	mustRegisterInfo(Cuttlefish, "TIPI-guided daemon tuning core and uncore frequency (§4)", func(t Tuning) (Governor, error) {
		return NewCuttlefish(core.PolicyBoth, t), nil
	})
	mustRegisterInfo(CuttlefishCore, "Cuttlefish daemon restricted to the core-frequency domain", func(t Tuning) (Governor, error) {
		return NewCuttlefish(core.PolicyCoreOnly, t), nil
	})
	mustRegisterInfo(CuttlefishUncore, "Cuttlefish daemon restricted to the uncore-frequency domain", func(t Tuning) (Governor, error) {
		return NewCuttlefish(core.PolicyUncoreOnly, t), nil
	})
	mustRegisterInfo(Static, "both domains pinned at fixed ratios (default: grid maxima)", func(t Tuning) (Governor, error) {
		return NewStatic(t.CF, t.UF), nil
	})
	mustRegisterInfo(DDCM, "duty-cycle modulation throttle at full voltage (Bhalachandra et al.)", func(t Tuning) (Governor, error) {
		level := t.DDCMLevel
		if level == 0 {
			level = DefaultDDCMLevel
		}
		return NewDDCM(t.CF, level), nil
	})
	mustRegisterInfo(Powersave, "both domains pinned at their grid minima", func(Tuning) (Governor, error) {
		return powersaveGovernor{}, nil
	})
	mustRegisterInfo(Ondemand, "Linux-ondemand-style reactive per-core DVFS on sampled throughput", func(t Tuning) (Governor, error) {
		return NewOndemand(t.TinvSec), nil
	})
}
