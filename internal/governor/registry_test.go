package governor

import (
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/msr"
	"repro/internal/sched"
	"repro/internal/workload"
)

func testMachine(t *testing.T, cores int) *machine.Machine {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.Cores = cores
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRegistryHasBuiltins(t *testing.T) {
	names := Names()
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for _, want := range []string{Default, Cuttlefish, CuttlefishCore, CuttlefishUncore, Static, DDCM, Powersave, Ondemand} {
		if !have[want] {
			t.Errorf("registry missing built-in %q (have %v)", want, names)
		}
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	if err := Register(Cuttlefish, func(Tuning) (Governor, error) { return defaultGovernor{}, nil }); err == nil {
		t.Fatal("re-registering an existing name must fail")
	}
	if err := Register("", nil); err == nil {
		t.Fatal("empty registration must fail")
	}
}

func TestNewUnknownNameListsRegistry(t *testing.T) {
	_, err := New("turbo-boost", Tuning{})
	if err == nil {
		t.Fatal("unknown governor must error")
	}
	if !strings.Contains(err.Error(), "turbo-boost") || !strings.Contains(err.Error(), Cuttlefish) {
		t.Errorf("error %q should name the typo and list registered governors", err)
	}
}

// TestAttachDetachBracketsMSRState verifies the satellite fix: every
// strategy — not just the public Session — saves the MSR state at Attach
// and restores it at Detach, even strategies that pin registers hard.
func TestAttachDetachBracketsMSRState(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			m := testMachine(t, 4)
			cfg := m.Config()
			g, err := New(name, Tuning{CF: 15, UF: 20, WarmupSec: -1, TinvSec: 5e-3})
			if err != nil {
				t.Fatal(err)
			}
			if g.Name() == "" {
				t.Error("governor must carry a name")
			}
			att, err := g.Attach(m)
			if err != nil {
				t.Fatal(err)
			}
			// Let the strategy act on a short busy window so reactive and
			// daemon strategies move frequencies off boot state.
			seg := workload.Segment{Instructions: 2e6, MissPerInstr: 0.08, IPC: 2, Exposure: 0.7}
			m.SetSource(sched.NewWorkSharing(cfg.Cores, sched.StaticProgram([]sched.Region{{Seg: seg, Chunks: 4 * cfg.Cores}}, 30), 1))
			m.Run(5)
			if err := att.Detach(); err != nil {
				t.Fatalf("detach: %v", err)
			}
			for c := 0; c < cfg.Cores; c++ {
				if got := m.CoreRatio(c); got != cfg.CoreGrid.Max {
					t.Errorf("core %d ratio after Detach = %v, want boot max %v", c, got, cfg.CoreGrid.Max)
				}
			}
			raw, err := m.Device().Read(msr.UncoreRatioLimit, 0)
			if err != nil {
				t.Fatal(err)
			}
			lo, hi := msr.UncoreLimitRatios(raw)
			if lo != uint8(cfg.UncoreGrid.Min) || hi != uint8(cfg.UncoreGrid.Max) {
				t.Errorf("0x620 after Detach = [%d,%d], want boot [%d,%d]", lo, hi, cfg.UncoreGrid.Min, cfg.UncoreGrid.Max)
			}
			// Idempotent.
			if err := att.Detach(); err != nil {
				t.Errorf("second Detach errored: %v", err)
			}
		})
	}
}

func TestStaticPinsRequestedRatios(t *testing.T) {
	m := testMachine(t, 2)
	att, err := NewStatic(16, 22).Attach(m)
	if err != nil {
		t.Fatal(err)
	}
	defer att.Detach()
	if got := m.CoreRatio(0); got != 16 {
		t.Errorf("static CF = %v, want 1.6GHz", got)
	}
	if got := m.UncoreRatio(); got != 22 {
		t.Errorf("static UF = %v, want 2.2GHz", got)
	}
}

func TestPowersavePinsMinima(t *testing.T) {
	m := testMachine(t, 2)
	att, err := New(Powersave, Tuning{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := att.Attach(m)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Detach()
	if got := m.CoreRatio(1); got != m.Config().CoreGrid.Min {
		t.Errorf("powersave CF = %v, want grid min", got)
	}
	if got := m.UncoreRatio(); got != m.Config().UncoreGrid.Min {
		t.Errorf("powersave UF = %v, want grid min", got)
	}
}

func TestOndemandReactsToLoad(t *testing.T) {
	m := testMachine(t, 4)
	att, err := NewOndemand(0).Attach(m)
	if err != nil {
		t.Fatal(err)
	}
	defer att.Detach()
	if got := m.CoreRatio(0); got != m.Config().CoreGrid.Min {
		t.Fatalf("idle ondemand CF = %v, want grid min", got)
	}
	// A busy phase must raise the cores to max within a few periods.
	seg := workload.Segment{Instructions: 5e7, IPC: 2}
	m.SetSource(sched.NewWorkSharing(4, sched.StaticProgram([]sched.Region{{Seg: seg, Chunks: 8}}, 50), 1))
	m.Run(0.2)
	if got := m.CoreRatio(0); got != m.Config().CoreGrid.Max {
		t.Errorf("busy ondemand CF = %v, want grid max", got)
	}
	// Run the workload out, then idle: cores must drop back to min.
	m.Run(400)
	if !m.Finished() {
		t.Fatal("workload did not finish")
	}
	m.SetSource(nil)
	m.Run(0.2)
	if got := m.CoreRatio(0); got != m.Config().CoreGrid.Min {
		t.Errorf("post-idle ondemand CF = %v, want grid min", got)
	}
}

func TestCuttlefishAttachmentCarriesDaemon(t *testing.T) {
	m := testMachine(t, 4)
	g, err := New(Cuttlefish, Tuning{TinvSec: 5e-3, WarmupSec: -1})
	if err != nil {
		t.Fatal(err)
	}
	att, err := g.Attach(m)
	if err != nil {
		t.Fatal(err)
	}
	if att.Daemon() == nil {
		t.Fatal("cuttlefish attachment must expose its daemon")
	}
	seg := workload.Segment{Instructions: 2e6, MissPerInstr: 0.05, IPC: 2}
	m.SetSource(sched.NewWorkSharing(4, sched.StaticProgram([]sched.Region{{Seg: seg, Chunks: 16}}, 40), 1))
	m.Run(10)
	if err := att.Detach(); err != nil {
		t.Fatal(err)
	}
	if att.Daemon().Samples() == 0 {
		t.Error("daemon processed no samples while attached")
	}
}

// TestListDescribesEveryBuiltin pins the listing contract the fuzz
// findings report and -list-governors rely on: every built-in carries a
// non-empty one-line description, List is sorted by name (the stable
// order), and Describe agrees with it.
func TestListDescribesEveryBuiltin(t *testing.T) {
	infos := List()
	if len(infos) < 8 {
		t.Fatalf("List() returned %d entries, want at least the 8 built-ins", len(infos))
	}
	for i, info := range infos {
		if info.Description == "" {
			t.Errorf("built-in %q has no listing description", info.Name)
		}
		if got := Describe(info.Name); got != info.Description {
			t.Errorf("Describe(%q) = %q, List says %q", info.Name, got, info.Description)
		}
		if i > 0 && infos[i-1].Name >= info.Name {
			t.Errorf("List() not sorted: %q before %q", infos[i-1].Name, info.Name)
		}
	}
	if Describe("no-such-governor") != "" {
		t.Error("Describe of an unknown name should be empty")
	}
}
