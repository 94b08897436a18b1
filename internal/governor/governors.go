package governor

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/freq"
	"repro/internal/machine"
	"repro/internal/msr"
	"repro/internal/timeline"
)

// DefaultDDCMLevel is the duty-cycle step matching the paper's ≈70%
// compute throttle (6/8 duty).
const DefaultDDCMLevel = 6

// ddcmQuietUncore pins the uncore at the firmware's quiet operating point
// so the DDCM study isolates the core knob.
const ddcmQuietUncore freq.Ratio = 22

// failAttach unwinds a partially performed Attach: the state saved at its
// start is restored so a failed strategy never leaks half-written MSRs —
// and never leaves a mutated snapshot for the next Attach's Save to
// capture as "boot state".
func failAttach(dev *msr.Device, err error) error {
	return errors.Join(err, dev.Restore())
}

// attachEvent marks a governor taking control on the machine's flight
// recorder (nil-safe, observability only).
func attachEvent(m *machine.Machine, note string) {
	m.Timeline().AddEvent(timeline.Event{T: m.Now(), Kind: timeline.KindAttach, Note: note})
}

// pinCores writes ratio to every core's IA32_PERF_CTL through the device.
func pinCores(m *machine.Machine, ratio freq.Ratio) error {
	dev := m.Device()
	for c := 0; c < m.Config().Cores; c++ {
		if err := dev.Write(msr.IA32PerfCtl, c, msr.PerfCtlRaw(uint8(ratio))); err != nil {
			return fmt.Errorf("governor: core %d: %w", c, err)
		}
	}
	return nil
}

// pinUncore collapses MSR 0x620's range to a single ratio.
func pinUncore(m *machine.Machine, ratio freq.Ratio) error {
	return m.Device().Write(msr.UncoreRatioLimit, 0, msr.UncoreLimitRaw(uint8(ratio), uint8(ratio)))
}

// --- default: performance governor + firmware Auto uncore ---

// defaultGovernor reproduces the paper's Default environment: the Linux
// "performance" CPU governor pins every core at maximum and the firmware's
// Auto mode drives the uncore from memory traffic.
type defaultGovernor struct{}

func (defaultGovernor) Name() string { return Default }

func (defaultGovernor) Attach(m *machine.Machine) (*Attachment, error) {
	dev := m.Device()
	dev.Save()
	if err := Apply(Performance, dev, m.Config().Cores, m.Config().CoreGrid); err != nil {
		return nil, failAttach(dev, err)
	}
	m.SetFirmware(DefaultAutoUFS())
	attachEvent(m, "default: performance cores, auto uncore")
	return newAttachment(nil, func() error {
		m.SetFirmware(nil)
		return dev.Restore()
	}), nil
}

// --- cuttlefish: the paper's daemon, all three policy variants ---

// cuttlefishGovernor wraps the Cuttlefish daemon: Attach performs the
// library's start() (save MSRs, raise both domains, schedule the daemon
// every Tinv) and Detach its stop() (halt the daemon, unschedule it,
// restore the MSRs — unconditionally, so a daemon error never leaks the
// saved state).
type cuttlefishGovernor struct {
	name string
	cfg  core.Config
}

// NewCuttlefish builds a daemon-backed governor for one of the paper's
// three policy variants, tuned by t.
func NewCuttlefish(policy core.Policy, t Tuning) Governor {
	return NewCuttlefishFromConfig(t.DaemonConfig(policy))
}

// NewCuttlefishFromConfig wraps a fully specified daemon configuration —
// the escape hatch the ablation study uses for its optimisation switches.
func NewCuttlefishFromConfig(cfg core.Config) Governor {
	return &cuttlefishGovernor{name: cfg.Policy.String(), cfg: cfg}
}

func (g *cuttlefishGovernor) Name() string { return g.name }

func (g *cuttlefishGovernor) Attach(m *machine.Machine) (*Attachment, error) {
	dev := m.Device()
	dev.Save()
	mc := m.Config()
	d, err := core.NewDaemon(g.cfg, dev, mc.Cores, mc.CoreGrid, mc.UncoreGrid, m.Now())
	if err != nil {
		return nil, failAttach(dev, fmt.Errorf("governor: %s: %w", g.name, err))
	}
	d.SetTimeline(m.Timeline())
	attachEvent(m, g.name)
	comp := &machine.Component{Period: g.cfg.TinvSec, Core: g.cfg.PinnedCore, Tick: d.Tick}
	m.Schedule(comp, m.Now()+g.cfg.TinvSec)
	att := newAttachment(d, func() error {
		d.Stop()
		m.Unschedule(comp)
		derr := d.Err()
		if derr != nil {
			derr = fmt.Errorf("governor: %s daemon failed during run: %w", g.name, derr)
		}
		return errors.Join(derr, dev.Restore())
	})
	return att.withState(
		func() ([]byte, error) {
			st, err := d.StateSnapshot()
			if err != nil {
				return nil, err
			}
			return st.Encode(), nil
		},
		func(blob []byte) error {
			st, err := core.DecodeDaemonState(blob)
			if err != nil {
				return fmt.Errorf("governor: %s state blob: %w", g.name, err)
			}
			return d.StateRestore(st)
		},
	), nil
}

// --- static: both domains pinned at fixed ratios ---

// staticGovernor pins core and uncore frequencies for the whole run — the
// Fig. 2/Fig. 3 measurement methodology and the oracle sweep's grid points.
type staticGovernor struct {
	cf, uf freq.Ratio
}

// NewStatic pins the cores at cf and the uncore at uf; zero means the
// corresponding grid maximum.
func NewStatic(cf, uf freq.Ratio) Governor { return staticGovernor{cf: cf, uf: uf} }

func (staticGovernor) Name() string { return Static }

func (g staticGovernor) Attach(m *machine.Machine) (*Attachment, error) {
	cf, uf := g.cf, g.uf
	if cf == 0 {
		cf = m.Config().CoreGrid.Max
	}
	if uf == 0 {
		uf = m.Config().UncoreGrid.Max
	}
	dev := m.Device()
	dev.Save()
	if err := pinCores(m, m.Config().CoreGrid.Clamp(cf)); err != nil {
		return nil, failAttach(dev, err)
	}
	if err := pinUncore(m, m.Config().UncoreGrid.Clamp(uf)); err != nil {
		return nil, failAttach(dev, err)
	}
	attachEvent(m, fmt.Sprintf("static: cf=%d uf=%d", cf, uf))
	return newAttachment(nil, dev.Restore), nil
}

// --- ddcm: duty-cycle modulation at full voltage ---

// ddcmGovernor throttles compute with IA32_CLOCK_MODULATION while the
// voltage (and so leakage) stays at the full-frequency point — the knob the
// energy-efficiency literature the paper builds on compares DVFS against.
// The uncore is pinned at the firmware's quiet point to isolate the core
// knob, matching the DDCM study's methodology.
type ddcmGovernor struct {
	cf    freq.Ratio
	level uint8
}

// NewDDCM runs the cores at cf (0 = max) under duty-cycle level (0 = no
// modulation; DefaultDDCMLevel ≈ the paper-matched 70% throttle).
func NewDDCM(cf freq.Ratio, level uint8) Governor { return ddcmGovernor{cf: cf, level: level} }

func (ddcmGovernor) Name() string { return DDCM }

func (g ddcmGovernor) Attach(m *machine.Machine) (*Attachment, error) {
	cf := g.cf
	if cf == 0 {
		cf = m.Config().CoreGrid.Max
	}
	dev := m.Device()
	dev.Save()
	if err := pinUncore(m, m.Config().UncoreGrid.Clamp(ddcmQuietUncore)); err != nil {
		return nil, failAttach(dev, err)
	}
	if err := pinCores(m, m.Config().CoreGrid.Clamp(cf)); err != nil {
		return nil, failAttach(dev, err)
	}
	for c := 0; c < m.Config().Cores; c++ {
		if err := dev.Write(msr.IA32ClockModulation, c, msr.ClockModRaw(g.level)); err != nil {
			return nil, failAttach(dev, fmt.Errorf("governor: core %d: %w", c, err))
		}
	}
	attachEvent(m, fmt.Sprintf("ddcm: cf=%d level=%d", cf, g.level))
	m.Timeline().AddEvent(timeline.Event{T: m.Now(), Kind: timeline.KindDDCM, To: int(g.level)})
	return newAttachment(nil, dev.Restore), nil
}

// --- powersave: both domains pinned at minimum ---

// powersaveGovernor is the Linux "powersave" analogue extended to the
// uncore: every knob at its grid minimum. It bounds the energy/slowdown
// trade space from below the way Default bounds it from above.
type powersaveGovernor struct{}

func (powersaveGovernor) Name() string { return Powersave }

func (powersaveGovernor) Attach(m *machine.Machine) (*Attachment, error) {
	dev := m.Device()
	dev.Save()
	if err := pinCores(m, m.Config().CoreGrid.Min); err != nil {
		return nil, failAttach(dev, err)
	}
	if err := pinUncore(m, m.Config().UncoreGrid.Min); err != nil {
		return nil, failAttach(dev, err)
	}
	attachEvent(m, "powersave: all domains at minimum")
	return newAttachment(nil, dev.Restore), nil
}

// --- ondemand: reactive per-core DVFS from sampled throughput ---

// DefaultOndemandPeriod is the ondemand governor's sampling period.
const DefaultOndemandPeriod = 10e-3

// ondemandBusyIPS is the per-core retired-instruction rate above which a
// sampling window counts as busy: well below any running core's throughput
// (≥ ~1e9 at the minimum ratio) and well above idle noise.
const ondemandBusyIPS = 5e7

// ondemandGovernor is a Linux-ondemand-style reactive strategy: every
// period it reads each core's INST_RETIRED through the msr-safe device and
// jumps the core to the maximum ratio when the window was busy, dropping it
// to the minimum when idle. The uncore is left to the firmware's Auto mode,
// as on a stock Linux box. It demonstrates that registered strategies can
// schedule their own periodic components, exactly like the daemon.
type ondemandGovernor struct {
	periodSec float64
}

// NewOndemand samples every periodSec (0 = DefaultOndemandPeriod).
func NewOndemand(periodSec float64) Governor {
	if periodSec <= 0 {
		periodSec = DefaultOndemandPeriod
	}
	return ondemandGovernor{periodSec: periodSec}
}

func (ondemandGovernor) Name() string { return Ondemand }

func (g ondemandGovernor) Attach(m *machine.Machine) (*Attachment, error) {
	dev := m.Device()
	dev.Save()
	m.SetFirmware(DefaultAutoUFS())
	cfg := m.Config()
	// Start every core at the minimum; the first busy window raises it.
	if err := pinCores(m, cfg.CoreGrid.Min); err != nil {
		m.SetFirmware(nil)
		return nil, failAttach(dev, err)
	}
	prev := make([]uint64, cfg.Cores)
	ratios := make([]freq.Ratio, cfg.Cores)
	for c := range ratios {
		prev[c], _ = dev.Read(msr.IA32FixedCtr0, c)
		ratios[c] = cfg.CoreGrid.Min
	}
	busyInstr := ondemandBusyIPS * g.periodSec
	tl := m.Timeline()
	attachEvent(m, "ondemand: reactive per-core DVFS")
	var tickErr error
	comp := &machine.Component{
		Period: g.periodSec,
		Tick: func(now float64) float64 {
			if tickErr != nil {
				return 0
			}
			for c := 0; c < cfg.Cores; c++ {
				cur, err := dev.Read(msr.IA32FixedCtr0, c)
				if err != nil {
					tickErr = err
					return 0
				}
				delta := cur - prev[c] // counter is monotone 64-bit
				prev[c] = cur
				want := cfg.CoreGrid.Min
				if float64(delta) >= busyInstr {
					want = cfg.CoreGrid.Max
				}
				if want == ratios[c] {
					continue
				}
				if err := dev.Write(msr.IA32PerfCtl, c, msr.PerfCtlRaw(uint8(want))); err != nil {
					tickErr = err
					return 0
				}
				tl.AddEvent(timeline.Event{T: now, Kind: timeline.KindDVFS, Core: c, From: int(ratios[c]), To: int(want)})
				ratios[c] = want
			}
			return 0
		},
	}
	m.Schedule(comp, m.Now()+g.periodSec)
	att := newAttachment(nil, func() error {
		m.Unschedule(comp)
		m.SetFirmware(nil)
		if tickErr != nil {
			tickErr = fmt.Errorf("governor: ondemand sampler: %w", tickErr)
		}
		return errors.Join(tickErr, dev.Restore())
	})
	return att.withState(
		func() ([]byte, error) {
			if tickErr != nil {
				return nil, fmt.Errorf("governor: ondemand sampler in error state: %w", tickErr)
			}
			return encodeOndemandState(prev, ratios), nil
		},
		func(blob []byte) error {
			return decodeOndemandState(blob, prev, ratios, cfg.CoreGrid)
		},
	), nil
}

// ondemandStateMagic versions the sampler's state layout; bump it on any
// change so an older blob reads as a refusal, never as wrong state.
const ondemandStateMagic = "cfondm1\n"

// encodeOndemandState lays out the sampler's private state between ticks
// — the previous per-core counter readings and the ratio last actuated
// per core (the write-skip cache) — canonically (internal/canon): the
// magic, the core count as a uint32, each core's reading as a uint64,
// then each core's ratio as one byte.
func encodeOndemandState(prev []uint64, ratios []freq.Ratio) []byte {
	w := canon.Writer{B: make([]byte, 0, len(ondemandStateMagic)+4+9*len(prev))}
	w.Bytes([]byte(ondemandStateMagic))
	w.U32(uint32(len(prev)))
	for _, v := range prev {
		w.U64(v)
	}
	for _, r := range ratios {
		w.U8(uint8(r))
	}
	return w.B
}

// decodeOndemandState reads encodeOndemandState's layout into prev and
// ratios, which hold one entry per core of the machine. A bad magic, a
// core count other than the machine's, a length other than the layout's
// or a ratio off the core grid is refused, and prev and ratios are then
// left untouched.
func decodeOndemandState(blob []byte, prev []uint64, ratios []freq.Ratio, grid freq.Grid) error {
	if !bytes.HasPrefix(blob, []byte(ondemandStateMagic)) {
		return errors.New("governor: ondemand state has a bad magic")
	}
	r := canon.NewReader(blob[len(ondemandStateMagic):], "governor: ondemand state")
	if n := r.U32(); r.Err() == nil && n != uint32(len(prev)) {
		return fmt.Errorf("governor: ondemand state has %d cores, machine has %d", n, len(prev))
	}
	p, rs := make([]uint64, len(prev)), make([]freq.Ratio, len(ratios))
	for c := range p {
		p[c] = r.U64()
	}
	for c := range rs {
		if rs[c] = freq.Ratio(r.U8()); r.Err() == nil && !grid.Contains(rs[c]) {
			r.Fail("has core %d at ratio %d, off the core grid %v", c, rs[c], grid)
		}
	}
	if err := r.Done(); err != nil {
		return err
	}
	copy(prev, p)
	copy(ratios, rs)
	return nil
}
