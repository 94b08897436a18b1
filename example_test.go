package cuttlefish_test

import (
	"fmt"
	"log"

	cuttlefish "repro"
)

// Bracket a parallel loop with Cuttlefish and watch it find the
// energy-optimal frequencies.
//
// This is the paper's minimal usage pattern: the application only calls
// cuttlefish::start() and cuttlefish::stop(); everything else (profiling
// TIPI through the MSRs, exploring core and uncore frequencies, pinning
// the optima) happens in the daemon.
func Example() {
	m, err := cuttlefish.NewMachine()
	if err != nil {
		log.Fatal(err)
	}
	cores := m.Config().Cores

	// A memory-leaning parallel loop: 400 iterations of a work-shared
	// region, each chunk streaming through memory (0.08 misses per
	// instruction ≈ the paper's "high TIPI" band).
	loop := cuttlefish.StaticProgram([]cuttlefish.Region{{
		Seg: cuttlefish.Segment{
			Instructions: 4e6,
			MissPerInstr: 0.08,
			IPC:          1.5,
			Exposure:     0.7,
		},
		Chunks: 8 * cores,
	}}, 400)

	// cuttlefish::start()
	session, err := cuttlefish.Start(m)
	if err != nil {
		log.Fatal(err)
	}

	m.SetSource(cuttlefish.NewWorkSharing(cores, loop, 1))
	elapsed := m.Run(120)

	// cuttlefish::stop()
	if err := session.Stop(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("ran %.1f simulated seconds, %.0f J package energy (%.1f W)\n",
		elapsed, m.TotalEnergy(), m.TotalEnergy()/elapsed)
	fmt.Printf("daemon processed %d Tinv samples and discovered %d TIPI slab(s):\n",
		session.Daemon().Samples(), session.Daemon().List().Len())
	for _, n := range session.Daemon().List().Nodes() {
		cf, uf := "exploring", "exploring"
		if n.CF.HasOpt() {
			cf = n.CF.OptRatio().String()
		}
		if n.UF.HasOpt() {
			uf = n.UF.OptRatio().String()
		}
		fmt.Printf("  TIPI %s  (%d hits)  CFopt=%s  UFopt=%s\n",
			n.Slab.Format(0.004), n.Hits, cf, uf)
	}
	// Output:
	// ran 20.1 simulated seconds, 1290 J package energy (64.1 W)
	// daemon processed 905 Tinv samples and discovered 2 TIPI slab(s):
	//   TIPI 0.076-0.080  (366 hits)  CFopt=1.2GHz  UFopt=2.4GHz
	//   TIPI 0.080-0.084  (539 hits)  CFopt=1.2GHz  UFopt=2.4GHz
}

// A multigrid-style solver with strongly varying memory access patterns:
// Cuttlefish discovers one TIPI slab per phase and tunes each
// independently.
//
// The workload alternates three hand-built phases (a compute-heavy
// assembly, a streaming smoother and an irregular coarse-grid solve)
// whose TIPI densities span the paper's whole range (§3.2: different MAPs
// need different frequency pairs). After the run the example prints the
// slab list with each phase's discovered CFopt/UFopt, which reproduces
// the Table 2 pattern: low-TIPI phases get fast cores and a slow uncore,
// high-TIPI phases the opposite with an interior uncore optimum.
func Example_multiphase() {
	m, err := cuttlefish.NewMachine()
	if err != nil {
		log.Fatal(err)
	}
	cores := m.Config().Cores
	chunks := 8 * cores

	phases := []cuttlefish.Region{
		{ // assembly: integer-heavy, cache resident
			Seg:    cuttlefish.Segment{Instructions: 3.0e7, MissPerInstr: 0.002, IPC: 1.8},
			Chunks: chunks,
		},
		{ // smoother: streaming stencil
			Seg:    cuttlefish.Segment{Instructions: 1.2e7, MissPerInstr: 0.065, IPC: 1.8, Exposure: 0.6},
			Chunks: chunks,
		},
		{ // coarse solve: pointer-chasing sparse kernel
			Seg:    cuttlefish.Segment{Instructions: 0.8e7, MissPerInstr: 0.150, IPC: 1.1, Exposure: 0.9},
			Chunks: chunks,
		},
	}
	// Each phase runs long enough (≫ Tinv) for the daemon to attribute
	// samples cleanly, cycling for 120 outer iterations.
	program := cuttlefish.StaticProgram(phases, 120)

	session, err := cuttlefish.Start(m)
	if err != nil {
		log.Fatal(err)
	}
	m.SetSource(cuttlefish.NewWorkSharing(cores, program, 3))
	elapsed := m.Run(240)
	if err := session.Stop(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("multiphase solver: %.1f simulated seconds, %.0f J\n", elapsed, m.TotalEnergy())
	fmt.Println("discovered memory access patterns (left = compute-bound):")
	fmt.Printf("%-14s %8s %10s %10s\n", "TIPI slab", "hits", "CFopt", "UFopt")
	for _, n := range session.Daemon().List().Nodes() {
		cf, uf := "-", "-"
		if n.CF.HasOpt() {
			cf = n.CF.OptRatio().String()
		}
		if n.UF.HasOpt() {
			uf = n.UF.OptRatio().String()
		}
		fmt.Printf("%-14s %8d %10s %10s\n", n.Slab.Format(0.004), n.Hits, cf, uf)
	}
	// Output:
	// multiphase solver: 46.5 simulated seconds, 2856 J
	// discovered memory access patterns (left = compute-bound):
	// TIPI slab          hits      CFopt      UFopt
	// 0.000-0.004         288     2.3GHz     1.2GHz
	// 0.004-0.008          60          -          -
	// 0.008-0.012           8          -          -
	// 0.012-0.016          40          -          -
	// 0.016-0.020           3          -          -
	// 0.020-0.024           2          -          -
	// 0.024-0.028           2          -          -
	// 0.028-0.032           1          -          -
	// 0.032-0.036           1          -          -
	// 0.036-0.040           4          -          -
	// 0.040-0.044           4          -          -
	// 0.044-0.048           1          -          -
	// 0.048-0.052          38          -          -
	// 0.052-0.056           4          -          -
	// 0.056-0.060           3          -          -
	// 0.060-0.064          42          -          -
	// 0.064-0.068         576     1.2GHz     2.4GHz
	// 0.068-0.072          44     1.2GHz     2.4GHz
	// 0.072-0.076           8     1.2GHz     2.4GHz
	// 0.076-0.080           3     1.2GHz     2.4GHz
	// 0.080-0.084           3     1.2GHz     2.4GHz
	// 0.084-0.088           1     1.2GHz          -
	// 0.092-0.096           2     1.2GHz     2.4GHz
	// 0.096-0.100          40     1.2GHz     2.4GHz
	// 0.100-0.104           3     1.2GHz     2.4GHz
	// 0.104-0.108           3     1.2GHz     2.4GHz
	// 0.108-0.112           4     1.2GHz     2.4GHz
	// 0.124-0.128           1     1.2GHz     2.4GHz
	// 0.132-0.136           2     1.2GHz     2.4GHz
	// 0.144-0.148           1     1.2GHz     2.4GHz
	// 0.148-0.152        1032     1.2GHz     2.4GHz
}

// Two workflow components share one socket under a single Cuttlefish
// daemon: the paper's future-work scenario ("explore the possibility of
// using Cuttlefish to control the power of co-running components of a
// workflow on a node", §7).
//
// A compute-bound analysis component owns half the cores and a
// memory-bound data-movement component the other half. Because TIPI is
// measured socket-wide, the daemon sees the blend of the two access
// patterns and chooses one frequency pair for the whole socket: the
// printout shows the blended slab landing between the components' native
// slabs, and the chosen frequencies compromising between the two,
// precisely the open problem the paper defers to future work.
func ExampleNewPartition() {
	m, err := cuttlefish.NewMachine()
	if err != nil {
		log.Fatal(err)
	}
	cores := m.Config().Cores
	half := cores / 2

	analysis := cuttlefish.NewWorkSharing(half, cuttlefish.StaticProgram([]cuttlefish.Region{{
		Seg:    cuttlefish.Segment{Instructions: 3e7, MissPerInstr: 0.002, IPC: 1.8},
		Chunks: 8 * half,
	}}, 400), 1)
	mover := cuttlefish.NewWorkSharing(cores-half, cuttlefish.StaticProgram([]cuttlefish.Region{{
		Seg:    cuttlefish.Segment{Instructions: 1.2e7, MissPerInstr: 0.13, IPC: 1.3, Exposure: 0.8},
		Chunks: 8 * (cores - half),
	}}, 400), 2)

	part := cuttlefish.NewPartition()
	if err := part.Assign(analysis, 0, half); err != nil {
		log.Fatal(err)
	}
	if err := part.Assign(mover, half, cores); err != nil {
		log.Fatal(err)
	}

	session, err := cuttlefish.Start(m)
	if err != nil {
		log.Fatal(err)
	}
	m.SetSource(part)
	elapsed := m.Run(240)
	if err := session.Stop(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("co-run: %.1f simulated seconds, %.0f J (%.1f W)\n",
		elapsed, m.TotalEnergy(), m.TotalEnergy()/elapsed)
	fmt.Println("components: analysis TIPI ≈ 0.002 (cores 0-9), mover TIPI ≈ 0.13 (cores 10-19)")
	fmt.Println("socket-wide slabs the daemon saw (the blend):")
	for _, n := range session.Daemon().List().Nodes() {
		cf, uf := "-", "-"
		if n.CF.HasOpt() {
			cf = n.CF.OptRatio().String()
		}
		if n.UF.HasOpt() {
			uf = n.UF.OptRatio().String()
		}
		fmt.Printf("  TIPI %s  hits %5d  CFopt %-8s UFopt %s\n", n.Slab.Format(0.004), n.Hits, cf, uf)
	}
	fmt.Println("\nnote: one frequency pair serves both components — per-component")
	fmt.Println("control needs per-core DVFS policy, the paper's open future work.")
	// Output:
	// co-run: 69.6 simulated seconds, 3964 J (57.0 W)
	// components: analysis TIPI ≈ 0.002 (cores 0-9), mover TIPI ≈ 0.13 (cores 10-19)
	// socket-wide slabs the daemon saw (the blend):
	//   TIPI 0.012-0.016  hits   303  CFopt 2.3GHz   UFopt -
	//   TIPI 0.016-0.020  hits   624  CFopt 2.3GHz   UFopt -
	//   TIPI 0.020-0.024  hits   312  CFopt 2.3GHz   UFopt -
	//   TIPI 0.032-0.036  hits     1  CFopt -        UFopt -
	//   TIPI 0.128-0.132  hits  2137  CFopt 1.6GHz   UFopt 2.3GHz
	//
	// note: one frequency pair serves both components — per-component
	// control needs per-core DVFS policy, the paper's open future work.
}

// Heat diffusion under async–finish task parallelism, with and without
// Cuttlefish.
//
// This is the paper's motivating memory-bound scenario: a Jacobi-style
// stencil decomposed into an irregular task DAG (Fig. 1) and
// load-balanced by a work-stealing runtime. The example runs the same
// Heat-irt workload twice, once in the Default environment (performance
// governor + firmware Auto uncore) and once under Cuttlefish, and prints
// the energy/time trade.
//
// With seed 7 at scale 0.25 the trade falls well short of the paper's
// Heat-irt bars in Fig. 10: the daemon resolves the two most frequent
// slabs (0.060-0.068) to CF 2.3 GHz and UF 1.6-1.7 GHz, the compute-bound
// answer, so the run saves 7.0% energy for a 21.9% slowdown. Seeds 1-6
// and 8 at this scale resolve every slab to CF 1.2 GHz / UF 2.4 GHz and
// save 18.0-19.2% for a 3.7-4.0% slowdown.
func ExampleBenchmarkByName() {
	const scale = 0.25 // fraction of the paper's 76.6 s run

	run := func(withCuttlefish bool) (sec, joules float64) {
		m, err := cuttlefish.NewMachine()
		if err != nil {
			log.Fatal(err)
		}
		spec, ok := cuttlefish.BenchmarkByName("Heat-irt")
		if !ok {
			log.Fatal("Heat-irt missing from the registry")
		}
		src, err := spec.Build(cuttlefish.BenchmarkParams{
			Cores: m.Config().Cores,
			Scale: scale,
			Seed:  7,
			Model: cuttlefish.ModelHClib,
		})
		if err != nil {
			log.Fatal(err)
		}

		gov := cuttlefish.GovernorDefault
		if withCuttlefish {
			gov = cuttlefish.GovernorCuttlefish
		}
		session, err := cuttlefish.Start(m, cuttlefish.WithGovernor(gov))
		if err != nil {
			log.Fatal(err)
		}

		m.SetSource(src)
		sec = m.Run(300)
		if err := session.Stop(); err != nil {
			log.Fatal(err)
		}
		if withCuttlefish {
			for _, n := range session.Daemon().List().Nodes() {
				if n.CF.HasOpt() && n.UF.HasOpt() {
					fmt.Printf("  slab %s -> CF %v, UF %v\n",
						n.Slab.Format(0.004), n.CF.OptRatio(), n.UF.OptRatio())
				}
			}
		}
		return sec, m.TotalEnergy()
	}

	fmt.Println("Heat diffusion (irregular DAG, work-stealing runtime)")
	defSec, defJ := run(false)
	fmt.Printf("Default:    %.1f s, %.0f J (%.1f W)\n", defSec, defJ, defJ/defSec)
	cfSec, cfJ := run(true)
	fmt.Printf("Cuttlefish: %.1f s, %.0f J (%.1f W)\n", cfSec, cfJ, cfJ/cfSec)
	fmt.Printf("energy savings %.1f%%, slowdown %.1f%% (paper Heat-irt: ≈22-29%% / ≤6%%)\n",
		100*(1-cfJ/defJ), 100*(cfSec/defSec-1))
	// Output:
	// Heat diffusion (irregular DAG, work-stealing runtime)
	// Default:    19.1 s, 1481 J (77.7 W)
	//   slab 0.060-0.064 -> CF 2.3GHz, UF 1.6GHz
	//   slab 0.064-0.068 -> CF 2.3GHz, UF 1.7GHz
	//   slab 0.068-0.072 -> CF 1.2GHz, UF 2.4GHz
	// Cuttlefish: 23.2 s, 1377 J (59.3 W)
	// energy savings 7.0%, slowdown 21.9% (paper Heat-irt: ≈22-29% / ≤6%)
}

// Sweep the daemon's profiling interval and print the energy/time
// trade-off: the paper's Table 3 study on a single benchmark.
//
// RAPL updates every 1 ms on Haswell, so Tinv is a multiple of that; the
// paper tries 10/20/40/60 ms and settles on 20 ms: about the savings of
// 10 ms with less slowdown. Larger Tinv stretches each exploration probe
// (10 readings per frequency), leaving more of the run at unoptimised
// frequencies.
func ExampleWithTinv() {
	const scale = 0.25

	run := func(opt cuttlefish.Option) (sec, joules float64) {
		m, err := cuttlefish.NewMachine()
		if err != nil {
			log.Fatal(err)
		}
		session, err := cuttlefish.Start(m, opt)
		if err != nil {
			log.Fatal(err)
		}
		spec, _ := cuttlefish.BenchmarkByName("MiniFE")
		src, err := spec.Build(cuttlefish.BenchmarkParams{Cores: m.Config().Cores, Scale: scale, Seed: 5})
		if err != nil {
			log.Fatal(err)
		}
		m.SetSource(src)
		sec = m.Run(300)
		if err := session.Stop(); err != nil {
			log.Fatal(err)
		}
		return sec, m.TotalEnergy()
	}

	defSec, defJ := run(cuttlefish.WithGovernor(cuttlefish.GovernorDefault))
	fmt.Printf("MiniFE Default: %.1f s, %.0f J\n", defSec, defJ)
	fmt.Printf("%8s %15s %10s\n", "Tinv", "energy savings", "slowdown")
	for _, tinv := range []float64{10e-3, 20e-3, 40e-3, 60e-3} {
		sec, joules := run(cuttlefish.WithTinv(tinv))
		fmt.Printf("%6.0fms %14.1f%% %9.1f%%\n",
			tinv*1e3, 100*(1-joules/defJ), 100*(sec/defSec-1))
	}
	// Output:
	// MiniFE Default: 20.1 s, 1528 J
	//     Tinv  energy savings   slowdown
	//     10ms           19.3%       3.8%
	//     20ms           17.5%       3.5%
	//     40ms           12.0%       2.7%
	//     60ms            9.0%       2.1%
}
