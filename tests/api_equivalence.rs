//! API-redesign equivalence suites (ISSUEs 3 and 4).
//!
//! The trait/builder/sweep redesign (ISSUE 3) and the composable
//! cache-topology redesign (ISSUE 4) must be pure refactors of the
//! simulated physics: on real captured workloads,
//!
//! * builder-built homogeneous machines are **byte-identical** to the
//!   pre-redesign `Machine::run` path;
//! * a heterogeneous machine whose slots all carry the same `CoreKind`
//!   equals the homogeneous machine event-for-event;
//! * the parallel `Sweep` runner returns results identical — values and
//!   order — to a sequential run of the same points, in both
//!   `Throughput` and `Completion` modes;
//! * every legacy `L2Arrangement::{Shared,Private}` preset run through
//!   an explicitly spelled `CacheTopology` is byte-identical, a uniform
//!   1-core-per-island topology ≡ `Private` and a chip-spanning island ≡
//!   `Shared` event-for-event, and the golden anchor below pins the
//!   walker's physics to the pre-refactor simulator.

use dbcmp::core::experiment::{RunSpec, Sweep};
use dbcmp::core::machines::{asym_cmp, cmp_for, fc_cmp, lc_cmp, smp_baseline, L2Spec};
use dbcmp::core::network::{network_capture, network_chip};
use dbcmp::core::taxonomy::{Camp, WorkloadKind};
use dbcmp::core::workload::{CapturedWorkload, FigScale};
use dbcmp::sim::{
    CacheTopology, Interconnect, LevelSpec, Machine, MachineBuilder, MachineConfig, RunMode,
    SharedBy, SimResult,
};
use dbcmp::trace::TraceBundle;

/// Force a genuinely threaded run (4 workers) regardless of host CPU
/// count — on a single-CPU host `Sweep::run`'s default worker count is
/// 1 and it degrades to the sequential path, which would make these
/// assertions vacuous.
fn run_threaded(sweep: &Sweep, bundle: &TraceBundle) -> Vec<SimResult> {
    let bundles: Vec<&TraceBundle> = vec![bundle; sweep.len()];
    sweep.run_each_with_workers(&bundles, 4)
}

fn spec(scale: &FigScale) -> RunSpec {
    RunSpec {
        warmup: scale.warmup / 2,
        measure: scale.measure / 2,
        max_cycles: 400_000_000,
    }
}

fn builder_result(cfg: MachineConfig, w: &CapturedWorkload, mode: RunMode) -> SimResult {
    MachineBuilder::from_config(cfg, mode)
        .build(&w.bundle)
        .expect("preset configs validate")
        .execute()
}

/// Golden anchor against the *actual* pre-redesign simulator: the first
/// four points were dumped from the seed code at commit `5227f31` (the
/// tree before the trait/builder refactor) running `Machine::run` on the
/// identical deterministic capture. They pin the physics — if the
/// refactor or any later change shifts a single cycle, this fails. The
/// shim-vs-builder tests below cannot catch such a drift on their own,
/// because `Machine::run` is now itself a shim over the same assembly
/// path.
///
/// The remaining points were dumped from the cycle-by-cycle replay loop
/// at commit `faa943c`, before idle cores were put to sleep. They pin
/// the paths the sleeping loop skips: SMP coherence stalls, long
/// interconnect gates (a 2-instance distributed-join capture under NUMA
/// and 10GbE), and OS quantum expiry while a core waits (16 threads on
/// one core with a 20 k-cycle quantum, on both camps).
#[test]
fn golden_anchor_matches_pre_redesign_simulator() {
    struct Golden<'b> {
        cfg: MachineConfig,
        bundle: &'b TraceBundle,
        mode: RunMode,
        cycles: u64,
        instrs: u64,
        units: u64,
        breakdown: [u64; 7],
        l1d_misses: u64,
        l2_hits: u64,
        mem_accesses: u64,
        coherence_transfers: u64,
        remote_stall_cycles: u64,
        avg_unit_cycles: f64,
    }
    let thr = RunMode::Throughput {
        warmup: 100_000,
        measure: 200_000,
    };
    let cmp = RunMode::Completion {
        max_cycles: 400_000_000,
    };
    let scale = FigScale::quick();
    let w = CapturedWorkload::saturated(WorkloadKind::Oltp, &scale);
    let net = network_capture(&scale, 2);
    let linked = |link: Interconnect| {
        let mut cfg = network_chip();
        cfg.interconnect = link;
        cfg
    };
    let short_quantum = |mut cfg: MachineConfig| {
        cfg.quantum = 20_000;
        cfg
    };
    let fc = fc_cmp(2, 2 << 20, L2Spec::Cacti);
    let lc = lc_cmp(2, 2 << 20, L2Spec::Cacti);
    let goldens = [
        Golden {
            cfg: fc.clone(),
            bundle: &w.bundle,
            mode: thr,
            cycles: 200_000,
            instrs: 242_984,
            units: 29,
            breakdown: [122_325, 96_107, 0, 367, 175_481, 0, 5_720],
            l1d_misses: 803,
            l2_hits: 218,
            mem_accesses: 581,
            coherence_transfers: 0,
            remote_stall_cycles: 0,
            avg_unit_cycles: 7_614.862_068_965_517,
        },
        Golden {
            cfg: fc,
            bundle: &w.bundle,
            mode: cmp,
            cycles: 1_044_119,
            instrs: 1_790_805,
            units: 128,
            breakdown: [899_817, 106_838, 2_815, 4_965, 965_756, 0, 27_150],
            l1d_misses: 10_982,
            l2_hits: 5_236,
            mem_accesses: 5_568,
            coherence_transfers: 0,
            remote_stall_cycles: 0,
            avg_unit_cycles: 83_477.312_5,
        },
        Golden {
            cfg: lc.clone(),
            bundle: &w.bundle,
            mode: thr,
            cycles: 200_000,
            instrs: 725_574,
            units: 62,
            breakdown: [365_627, 21_239, 0, 1_287, 11_815, 0, 32],
            l1d_misses: 4_348,
            l2_hits: 2_813,
            mem_accesses: 1_357,
            coherence_transfers: 0,
            remote_stall_cycles: 0,
            avg_unit_cycles: 16_980.822_580_645_163,
        },
        Golden {
            cfg: lc,
            bundle: &w.bundle,
            mode: cmp,
            cycles: 702_230,
            instrs: 1_790_879,
            units: 128,
            breakdown: [902_293, 69_774, 1_260, 11_178, 190_255, 0, 14_189],
            l1d_misses: 13_111,
            l2_hits: 6_981,
            mem_accesses: 5_568,
            coherence_transfers: 0,
            remote_stall_cycles: 0,
            avg_unit_cycles: 45_846.382_812_5,
        },
        Golden {
            cfg: smp_baseline(2, 2 << 20, Camp::Fat),
            bundle: &w.bundle,
            mode: thr,
            cycles: 200_000,
            instrs: 210_071,
            units: 23,
            breakdown: [105_785, 105_434, 0, 274, 180_297, 3_314, 4_896],
            l1d_misses: 757,
            l2_hits: 157,
            mem_accesses: 589,
            coherence_transfers: 19,
            remote_stall_cycles: 0,
            avg_unit_cycles: 8_892.347_826_086_956,
        },
        Golden {
            cfg: smp_baseline(2, 2 << 20, Camp::Fat),
            bundle: &w.bundle,
            mode: cmp,
            cycles: 1_233_526,
            instrs: 1_790_794,
            units: 128,
            breakdown: [900_219, 185_954, 5_664, 3_304, 1_019_467, 256_104, 30_773],
            l1d_misses: 10_926,
            l2_hits: 4_259,
            mem_accesses: 5_810,
            coherence_transfers: 1_456,
            remote_stall_cycles: 0,
            avg_unit_cycles: 102_645.5,
        },
        Golden {
            cfg: short_quantum(fc_cmp(1, 2 << 20, L2Spec::Cacti)),
            bundle: &w.bundle,
            mode: thr,
            cycles: 200_000,
            instrs: 98_629,
            units: 8,
            breakdown: [49_605, 4_550, 0, 203, 115_126, 0, 30_516],
            l1d_misses: 874,
            l2_hits: 143,
            mem_accesses: 731,
            coherence_transfers: 0,
            remote_stall_cycles: 0,
            avg_unit_cycles: 110_416.25,
        },
        Golden {
            cfg: short_quantum(lc_cmp(1, 2 << 20, L2Spec::Cacti)),
            bundle: &w.bundle,
            mode: thr,
            cycles: 200_000,
            instrs: 314_893,
            units: 30,
            breakdown: [158_611, 9_773, 0, 497, 24_530, 0, 6_589],
            l1d_misses: 2_489,
            l2_hits: 860,
            mem_accesses: 1_629,
            coherence_transfers: 0,
            remote_stall_cycles: 0,
            avg_unit_cycles: 66_342.5,
        },
        Golden {
            cfg: linked(Interconnect::numa_link()),
            bundle: &net.bundles[0],
            mode: thr,
            cycles: 200_000,
            instrs: 1_039_332,
            units: 12,
            breakdown: [518_447, 24_284, 746, 2_248, 203_376, 0, 50_899],
            l1d_misses: 26_267,
            l2_hits: 25_477,
            mem_accesses: 790,
            coherence_transfers: 0,
            remote_stall_cycles: 49_676,
            avg_unit_cycles: 91_190.5,
        },
        Golden {
            cfg: linked(Interconnect::numa_link()),
            bundle: &net.bundles[1],
            mode: thr,
            cycles: 200_000,
            instrs: 1_346_817,
            units: 15,
            breakdown: [665_877, 19_732, 717, 1_149, 45_353, 0, 67_172],
            l1d_misses: 27_748,
            l2_hits: 26_865,
            mem_accesses: 883,
            coherence_transfers: 0,
            remote_stall_cycles: 66_554,
            avg_unit_cycles: 76_118.333_333_333_33,
        },
        Golden {
            cfg: linked(Interconnect::network_10g()),
            bundle: &net.bundles[0],
            mode: thr,
            cycles: 200_000,
            instrs: 357_350,
            units: 4,
            breakdown: [179_121, 31_959, 1_179, 415, 265_992, 0, 321_334],
            l1d_misses: 9_120,
            l2_hits: 6_751,
            mem_accesses: 2_369,
            coherence_transfers: 0,
            remote_stall_cycles: 267_897,
            avg_unit_cycles: 268_790.0,
        },
        Golden {
            cfg: linked(Interconnect::network_10g()),
            bundle: &net.bundles[1],
            mode: thr,
            cycles: 200_000,
            instrs: 406_741,
            units: 4,
            breakdown: [201_347, 34_681, 718, 129, 144_587, 0, 418_538],
            l1d_misses: 8_649,
            l2_hits: 7_086,
            mem_accesses: 1_563,
            coherence_transfers: 0,
            remote_stall_cycles: 415_776,
            avg_unit_cycles: 275_689.5,
        },
    ];
    for g in goldens {
        let name = g.cfg.name.clone();
        let r = Machine::run(g.cfg, g.bundle, g.mode);
        assert_eq!(r.cycles, g.cycles, "{name} {:?}: cycles", g.mode);
        assert_eq!(r.instrs, g.instrs, "{name} {:?}: instrs", g.mode);
        assert_eq!(r.units, g.units, "{name} {:?}: units", g.mode);
        assert_eq!(
            r.breakdown.cycles, g.breakdown,
            "{name} {:?}: breakdown",
            g.mode
        );
        assert_eq!(r.mem.l1d_misses, g.l1d_misses, "{name}: l1d misses");
        assert_eq!(r.mem.l2_hits, g.l2_hits, "{name}: l2 hits");
        assert_eq!(r.mem.mem_accesses, g.mem_accesses, "{name}: mem accesses");
        assert_eq!(
            r.mem.coherence_transfers, g.coherence_transfers,
            "{name}: coherence transfers"
        );
        assert_eq!(
            r.remote.stall_cycles, g.remote_stall_cycles,
            "{name}: remote stall cycles"
        );
        let avg = r.avg_unit_cycles.expect("units completed");
        assert!(
            (avg - g.avg_unit_cycles).abs() < 1e-9,
            "{name}: avg unit cycles {avg} != {}",
            g.avg_unit_cycles
        );
    }
}

/// (a) Builder-built homogeneous machines vs the pre-redesign path, on
/// both camps, both arrangements, both run modes. (Entry-point
/// equivalence; the golden anchor above pins the underlying physics.)
#[test]
fn builder_byte_identical_to_legacy_path() {
    let scale = FigScale::quick();
    let w = CapturedWorkload::saturated(WorkloadKind::Oltp, &scale);
    let sp = spec(&scale);
    for cfg in [
        fc_cmp(2, 2 << 20, L2Spec::Cacti),
        lc_cmp(2, 2 << 20, L2Spec::Cacti),
        smp_baseline(2, 2 << 20, Camp::Fat),
    ] {
        for mode in [sp.throughput(), sp.completion()] {
            let legacy = Machine::run(cfg.clone(), &w.bundle, mode);
            let built = builder_result(cfg.clone(), &w, mode);
            assert_eq!(
                legacy, built,
                "builder must be byte-identical to Machine::run for {}",
                cfg.name
            );
            assert_eq!(format!("{legacy:?}"), format!("{built:?}"));
        }
    }
}

/// (b) Heterogeneous machines with uniform slots vs the homogeneous
/// config — event-for-event, including per-core breakdowns and memory
/// counters.
#[test]
fn uniform_hetero_equals_homogeneous() {
    let scale = FigScale::quick();
    let w = CapturedWorkload::saturated(WorkloadKind::Dss, &scale);
    let sp = spec(&scale);
    for camp in [Camp::Fat, Camp::Lean] {
        let homo = cmp_for(camp, 4, 4 << 20, L2Spec::Cacti);
        let mut hetero = homo.clone();
        hetero.slots = homo.slot_kinds();
        assert_eq!(hetero.slots.len(), 4);
        for mode in [sp.throughput(), sp.completion()] {
            let a = Machine::run(homo.clone(), &w.bundle, mode);
            let b = Machine::run(hetero.clone(), &w.bundle, mode);
            assert_eq!(a.per_core, b.per_core, "{camp:?}: per-core breakdowns");
            assert_eq!(a.mem, b.mem, "{camp:?}: memory counters");
            assert_eq!(a, b, "{camp:?}: full result");
        }
    }
}

/// The asym preset's pure endpoints reduce to the camp presets (same
/// numbers; the name differs by design).
#[test]
fn asym_pure_endpoints_equal_presets() {
    let scale = FigScale::quick();
    let w = CapturedWorkload::saturated(WorkloadKind::Oltp, &scale);
    let mode = spec(&scale).throughput();
    for (asym, preset) in [
        (
            asym_cmp(4, 0, 4 << 20, L2Spec::Cacti),
            fc_cmp(4, 4 << 20, L2Spec::Cacti),
        ),
        (
            asym_cmp(0, 4, 4 << 20, L2Spec::Cacti),
            lc_cmp(4, 4 << 20, L2Spec::Cacti),
        ),
    ] {
        let mut a = Machine::run(asym, &w.bundle, mode);
        let b = Machine::run(preset, &w.bundle, mode);
        a.machine = b.machine.clone();
        assert_eq!(a, b);
    }
}

/// (c) Parallel sweep == sequential sweep, values and order, for both
/// run modes and a mixed bag of machines (including heterogeneous ones),
/// against a shared bundle.
#[test]
fn parallel_sweep_identical_to_sequential() {
    let scale = FigScale::quick();
    let w = CapturedWorkload::saturated(WorkloadKind::Oltp, &scale);
    let sp = spec(&scale);
    for mode in [sp.throughput(), sp.completion()] {
        let mut sweep = Sweep::new();
        for (i, cfg) in [
            fc_cmp(1, 1 << 20, L2Spec::Cacti),
            lc_cmp(1, 1 << 20, L2Spec::Cacti),
            fc_cmp(2, 2 << 20, L2Spec::Fixed(4)),
            asym_cmp(1, 1, 2 << 20, L2Spec::Cacti),
            smp_baseline(2, 1 << 20, Camp::Fat),
            lc_cmp(2, 4 << 20, L2Spec::Cacti),
        ]
        .into_iter()
        .enumerate()
        {
            sweep.push(format!("p{i}"), cfg, mode);
        }
        let par = run_threaded(&sweep, &w.bundle);
        let seq = sweep.run_sequential(&w.bundle);
        assert_eq!(par.len(), sweep.len());
        assert_eq!(par, seq, "parallel sweep must be byte-identical ({mode:?})");
        assert_eq!(
            sweep.run(&w.bundle),
            seq,
            "default-worker run must agree too ({mode:?})"
        );
        // Order: result i carries machine i's name.
        for (p, r) in sweep.points().iter().zip(&par) {
            assert_eq!(
                r.machine, p.cfg.name,
                "results must come back in input order"
            );
        }
    }
}

/// (ISSUE 4) Every legacy `L2Arrangement` preset re-spelled as an
/// explicit `CacheTopology` is byte-identical: the enum is now a thin
/// constructor and both spellings walk the same generic level chain.
#[test]
fn explicit_topology_byte_identical_to_legacy_arrangements() {
    let scale = FigScale::quick();
    let w = CapturedWorkload::saturated(WorkloadKind::Oltp, &scale);
    let sp = spec(&scale);
    for cfg in [
        fc_cmp(2, 2 << 20, L2Spec::Cacti),
        lc_cmp(2, 2 << 20, L2Spec::Cacti),
        smp_baseline(2, 2 << 20, Camp::Fat),
    ] {
        // Re-spell the preset's one-level topology from scratch.
        let level = *cfg.topology.innermost();
        let mut spelled = cfg.clone();
        spelled.topology =
            CacheTopology::new(vec![LevelSpec::new(level.geom, level.shared_by)
                .banks(level.banks, level.bank_occupancy)]);
        assert_eq!(
            spelled.topology, cfg.topology,
            "thin constructor round-trips"
        );
        for mode in [sp.throughput(), sp.completion()] {
            let legacy = Machine::run(cfg.clone(), &w.bundle, mode);
            let explicit = Machine::run(spelled.clone(), &w.bundle, mode);
            assert_eq!(
                legacy, explicit,
                "{}: topology spelling must not matter",
                cfg.name
            );
        }
    }
}

/// (ISSUE 4) A uniform 1-core-per-island topology ≡ `Private`
/// event-for-event, and a chip-spanning island ≡ `Shared` — the cluster
/// continuum really has the two legacy shapes as its endpoints.
#[test]
fn cluster_extremes_equal_legacy_shapes() {
    let scale = FigScale::quick();
    let w = CapturedWorkload::saturated(WorkloadKind::Oltp, &scale);
    let sp = spec(&scale);
    // Cluster(1) vs Private, identical bank parameters.
    let private = smp_baseline(4, 1 << 20, Camp::Fat);
    let mut one_core_islands = private.clone();
    {
        let lvl = private.topology.innermost();
        one_core_islands.topology =
            CacheTopology::new(vec![
                LevelSpec::new(lvl.geom, SharedBy::Cluster(1)).banks(lvl.banks, lvl.bank_occupancy)
            ]);
    }
    // Cluster(4) vs Chip on the fat CMP preset.
    let shared = fc_cmp(4, 4 << 20, L2Spec::Cacti);
    let mut chip_island = shared.clone();
    {
        let lvl = shared.topology.innermost();
        chip_island.topology =
            CacheTopology::new(vec![
                LevelSpec::new(lvl.geom, SharedBy::Cluster(4)).banks(lvl.banks, lvl.bank_occupancy)
            ]);
    }
    for (legacy, island) in [(private, one_core_islands), (shared, chip_island)] {
        for mode in [sp.throughput(), sp.completion()] {
            let a = Machine::run(legacy.clone(), &w.bundle, mode);
            let b = Machine::run(island.clone(), &w.bundle, mode);
            assert_eq!(
                a.per_core, b.per_core,
                "{}: per-core breakdowns",
                legacy.name
            );
            assert_eq!(a.mem, b.mem, "{}: memory counters", legacy.name);
            assert_eq!(a, b, "{}: full result", legacy.name);
        }
    }
}

/// Repeated parallel runs are stable (no scheduling nondeterminism
/// leaks into results).
#[test]
fn parallel_sweep_is_deterministic_across_runs() {
    let scale = FigScale::quick();
    let w = CapturedWorkload::unsaturated(WorkloadKind::Dss, &scale);
    let sp = spec(&scale);
    let sweep = Sweep::new()
        .point("a", fc_cmp(2, 1 << 20, L2Spec::Cacti), sp.throughput())
        .point("b", lc_cmp(2, 1 << 20, L2Spec::Cacti), sp.throughput())
        .point("c", asym_cmp(1, 1, 1 << 20, L2Spec::Cacti), sp.throughput());
    let r1 = run_threaded(&sweep, &w.bundle);
    let r2 = run_threaded(&sweep, &w.bundle);
    assert_eq!(r1, r2);
}
