//! The benchmark workloads: what each captures, which machine points it
//! replays, and the checks every capture and every point must pass.

use dbcmp_core::figures::joins_machines;
use dbcmp_core::machines::{fc_cmp, lc_cmp, smp_baseline, L2Spec};
use dbcmp_core::network::{network_chip, network_presets};
use dbcmp_core::{Camp, FigScale};
use dbcmp_engine::{CcBackend, CcStats};
use dbcmp_sim::{Breakdown, MachineConfig, RunMode, SimResult};
use dbcmp_trace::TraceBundle;
use dbcmp_workloads::tpch::QueryKind;
use dbcmp_workloads::{
    build_tpcc, capture_dss_dist, capture_oltp, capture_oltp_interleaved, CaptureOptions,
    ContentionStats, DistOptions, DistStats, DrawScheme, InterleaveOptions,
};

use crate::affinity::on_one_cpu;
use crate::digest::Digest;
use crate::spans::Spans;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One saturated TPC-C capture replayed on the paper's three camps.
    OltpSweep,
    /// Interleaved TPC-C at 90% hot-row skew, captured under each
    /// concurrency-control backend, each replayed on the CMP preset.
    OltpContended,
    /// The distributed Q3/Q5 join mix at four instances, replayed over
    /// a NUMA link and over 10 GbE.
    DssNetwork,
}

/// Hot-row skew of the contended workload (percent of transactions).
pub const CONTENDED_HOT_PCT: u8 = 90;
/// Engine instances of the distributed workload.
pub const DSS_INSTANCES: usize = 4;
/// Measure-window multiple of the distributed workload's replays.
/// `fig_network` widens its window 16x so a one-chip point completes a
/// whole query; at four instances every instance completes fragments
/// within 2x, and the 16x window would take about 40 host seconds per
/// iteration.
pub const DSS_WINDOW_WIDEN: u64 = 2;
/// Interconnect presets the distributed workload replays under.
pub const DSS_PRESETS: [&str; 2] = ["NUMA", "10GbE"];

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::OltpSweep,
        Workload::OltpContended,
        Workload::DssNetwork,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OltpSweep => "oltp_sweep",
            Workload::OltpContended => "oltp_contended",
            Workload::DssNetwork => "dss_network",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The replay points, in sweep order. Each names the capture and
    /// bundle it replays.
    pub fn points(self, scale: &FigScale) -> Vec<Point> {
        let window = RunMode::Throughput {
            warmup: scale.warmup,
            measure: scale.measure,
        };
        match self {
            Workload::OltpSweep => [
                ("SMP", smp_baseline(4, 4 << 20, Camp::Fat)),
                ("FC-CMP", fc_cmp(4, 16 << 20, L2Spec::Cacti)),
                ("LC-CMP", lc_cmp(4, 16 << 20, L2Spec::Cacti)),
            ]
            .into_iter()
            .map(|(group, cfg)| Point::new(group, group.to_string(), cfg, window, 0, 0))
            .collect(),
            Workload::OltpContended => BACKENDS
                .iter()
                .enumerate()
                .map(|(i, &(group, _))| {
                    Point::new(group, group.to_string(), fig_cc_cmp(), window, i, 0)
                })
                .collect(),
            Workload::DssNetwork => {
                let mode = RunMode::Throughput {
                    warmup: scale.warmup,
                    measure: scale.measure * DSS_WINDOW_WIDEN,
                };
                let mut out = Vec::new();
                let presets = network_presets()
                    .into_iter()
                    .filter(|(tag, _)| DSS_PRESETS.contains(tag));
                for (group, link) in presets {
                    for i in 0..DSS_INSTANCES {
                        let mut cfg = network_chip();
                        cfg.interconnect = link;
                        out.push(Point::new(group, format!("{group}#{i}"), cfg, mode, 0, i));
                    }
                }
                out
            }
        }
    }

    /// Labels of the workload's captures, in capture order.
    pub fn capture_labels(self) -> Vec<&'static str> {
        match self {
            Workload::OltpSweep => vec!["OLTP"],
            Workload::OltpContended => BACKENDS.iter().map(|&(label, _)| label).collect(),
            Workload::DssNetwork => vec!["DIST"],
        }
    }

    /// Make capture `i` (one operation). Each call into the workloads
    /// layer runs inside a span.
    pub fn capture(self, i: usize, scale: &FigScale, spans: &mut Spans) -> Capture {
        match self {
            Workload::OltpSweep => {
                let (mut db, h) = spans.time(POPULATE, || build_tpcc(scale.tpcc, scale.seed));
                let opt = CaptureOptions::new(scale.oltp_clients, scale.oltp_units, scale.seed);
                let bundle =
                    spans.time("workloads::capture_oltp", || capture_oltp(&mut db, &h, opt));
                Capture {
                    label: "OLTP",
                    bundles: vec![bundle],
                    stats: CaptureStats::Plain,
                }
            }
            Workload::OltpContended => {
                let (label, backend) = BACKENDS[i];
                let (db, h) = spans.time(POPULATE, || build_tpcc(scale.tpcc, scale.seed));
                // The options `fig_cc` captures with.
                let opt = InterleaveOptions {
                    clients: scale.contention_clients,
                    units_per_client: scale.contention_units,
                    seed: scale.seed,
                    slice_ops: scale.slice_ops,
                    hot_pct: CONTENDED_HOT_PCT,
                    hot_items: scale.hot_items,
                    backend: CcBackend::Centralized2PL,
                    draws: DrawScheme::Legacy,
                }
                .with_backend(backend);
                let cap = spans.time("workloads::capture_oltp_interleaved", || {
                    on_one_cpu(|| capture_oltp_interleaved(db, &h, opt))
                });
                Capture {
                    label,
                    bundles: vec![cap.bundle],
                    stats: CaptureStats::Contended {
                        stats: cap.stats,
                        cc: cap.cc,
                    },
                }
            }
            Workload::DssNetwork => {
                let opt = DistOptions {
                    capture: CaptureOptions::new(scale.dss_clients, scale.dss_units, scale.seed),
                    instances: DSS_INSTANCES,
                };
                // Builds the partitioned databases internally, so
                // population is not separable from capture here.
                let cap = spans.time("workloads::capture_dss_dist", || {
                    capture_dss_dist(scale.tpch, &QueryKind::JOINS, opt)
                });
                Capture {
                    label: "DIST",
                    bundles: cap.bundles,
                    stats: CaptureStats::Dist(cap.stats),
                }
            }
        }
    }

    /// Index of the point whose sweep result the untraced run re-checks
    /// against a sequential build + execute (the cheapest one).
    pub fn spot_check_point(self) -> usize {
        match self {
            Workload::OltpSweep => 0,
            Workload::OltpContended => 1,
            Workload::DssNetwork => DSS_INSTANCES,
        }
    }
}

/// Span name of database population.
pub const POPULATE: &str = "workloads::build_tpcc";

/// The contended workload's backends with their metric labels.
pub const BACKENDS: [(&str, CcBackend); 3] = [
    ("2PL", CcBackend::Centralized2PL),
    ("PART", CcBackend::PartitionedPerCore),
    ("ORD", CcBackend::DeterministicOrdered),
];

/// `fig_cc`'s CMP preset.
fn fig_cc_cmp() -> MachineConfig {
    let [_, (tag, cfg), _] = joins_machines();
    debug_assert_eq!(tag, "CMP");
    cfg
}

/// What a capture produced.
pub struct Capture {
    pub label: &'static str,
    pub bundles: Vec<TraceBundle>,
    pub stats: CaptureStats,
}

/// Capture-side counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaptureStats {
    Plain,
    Contended { stats: ContentionStats, cc: CcStats },
    Dist(DistStats),
}

impl Capture {
    /// A capture is usable when every bundle holds events and completed
    /// units, and no client was starved into truncating the capture.
    pub fn check(&self) -> Result<(), String> {
        if self.bundles.is_empty() {
            return Err(format!("{}: no bundles", self.label));
        }
        for (i, b) in self.bundles.iter().enumerate() {
            if b.total_events() == 0 || b.total_units() == 0 {
                return Err(format!("{} bundle {i}: empty capture", self.label));
            }
        }
        match self.stats {
            CaptureStats::Plain => Ok(()),
            CaptureStats::Contended { stats, .. } if stats.starved_units > 0 => Err(format!(
                "{}: {} starved units truncate the capture",
                self.label, stats.starved_units
            )),
            CaptureStats::Contended { stats, .. } if stats.commits == 0 => {
                Err(format!("{}: no commits", self.label))
            }
            CaptureStats::Contended { .. } => Ok(()),
            CaptureStats::Dist(d) if d.units == 0 => Err(format!("{}: no query units", self.label)),
            CaptureStats::Dist(_) if self.bundles.len() != DSS_INSTANCES => {
                Err(format!("{}: expected {DSS_INSTANCES} bundles", self.label))
            }
            CaptureStats::Dist(_) => Ok(()),
        }
    }

    /// Digest over every deterministic capture output: per-thread event,
    /// byte, instruction, access, unit, block and message counts, and the
    /// capture's own counters.
    pub fn digest(&self) -> Digest {
        let mut d = Digest::default();
        d.debug(&self.label);
        for b in &self.bundles {
            d.u64(b.threads.len() as u64);
            for t in &b.threads {
                for v in [
                    t.len() as u64,
                    t.encoded_bytes() as u64,
                    t.instrs(),
                    t.loads(),
                    t.stores(),
                    t.units(),
                    t.blocks(),
                    t.wakes(),
                    t.remote_sends(),
                    t.remote_recvs(),
                    t.remote_bytes(),
                ] {
                    d.u64(v);
                }
            }
        }
        d.debug(&self.stats);
        d
    }

    pub fn events(&self) -> u64 {
        self.bundles.iter().map(|b| b.total_events() as u64).sum()
    }

    pub fn encoded_bytes(&self) -> u64 {
        self.bundles.iter().map(|b| b.encoded_bytes() as u64).sum()
    }

    pub fn units(&self) -> u64 {
        self.bundles.iter().map(|b| b.total_units()).sum()
    }
}

/// One replay point.
#[derive(Debug, Clone)]
pub struct Point {
    /// The metric label `<p>` this point reports under; the distributed
    /// workload's instances share their preset's label.
    pub group: &'static str,
    pub label: String,
    pub cfg: MachineConfig,
    pub mode: RunMode,
    /// Capture and bundle the point replays.
    pub capture: usize,
    pub bundle: usize,
}

impl Point {
    fn new(
        group: &'static str,
        label: String,
        cfg: MachineConfig,
        mode: RunMode,
        capture: usize,
        bundle: usize,
    ) -> Self {
        Point {
            group,
            label,
            cfg,
            mode,
            capture,
            bundle,
        }
    }

    /// Simulated core-cycles the point covers: warm-up plus measure
    /// window, times cores.
    pub fn core_cycles(&self) -> u64 {
        let RunMode::Throughput { warmup, measure } = self.mode else {
            unreachable!("benchmark points run in throughput mode")
        };
        (warmup + measure) * self.cfg.n_cores as u64
    }

    /// A throughput point's result is sound when every core's breakdown
    /// sums to exactly the measured window, the aggregate breakdown is
    /// the per-core sum, and at least one unit completed.
    pub fn check(&self, r: &SimResult) -> Result<(), String> {
        let RunMode::Throughput { measure, .. } = self.mode else {
            unreachable!("benchmark points run in throughput mode")
        };
        let label = &self.label;
        if r.cycles != measure {
            return Err(format!(
                "{label}: measured {} cycles, window {measure}",
                r.cycles
            ));
        }
        if r.per_core.len() != self.cfg.n_cores {
            return Err(format!(
                "{label}: {} per-core breakdowns for {} cores",
                r.per_core.len(),
                self.cfg.n_cores
            ));
        }
        let mut sum = Breakdown::default();
        for (c, b) in r.per_core.iter().enumerate() {
            if b.total() != measure {
                return Err(format!(
                    "{label}: core {c} breakdown sums to {}, window {measure}",
                    b.total()
                ));
            }
            sum.merge(b);
        }
        if sum != r.breakdown {
            return Err(format!(
                "{label}: aggregate breakdown is not the per-core sum"
            ));
        }
        if r.units == 0 {
            return Err(format!("{label}: no unit completed"));
        }
        Ok(())
    }
}

/// Digest over every field of a replay result.
pub fn result_digest(p: &Point, r: &SimResult) -> Digest {
    let mut d = Digest::default();
    d.debug(&p.label);
    d.debug(r);
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn points_reference_existing_bundles() {
        let scale = FigScale::paper();
        for w in Workload::ALL {
            let n_caps = w.capture_labels().len();
            let points = w.points(&scale);
            assert!(points.iter().all(|p| p.capture < n_caps));
            assert!(w.spot_check_point() < points.len());
        }
        let mut groups: Vec<&str> = Workload::ALL
            .iter()
            .flat_map(|w| w.points(&scale))
            .map(|p| p.group)
            .collect();
        groups.dedup();
        assert_eq!(groups, crate::metrics::SIM_POINTS);
        let dss = Workload::DssNetwork.points(&scale);
        assert_eq!(dss.len(), DSS_PRESETS.len() * DSS_INSTANCES);
        assert_eq!(dss[DSS_INSTANCES].group, "10GbE");
    }

    #[test]
    fn breakdown_check_rejects_a_corrupted_result() {
        let scale = FigScale::paper();
        let p = &Workload::OltpSweep.points(&scale)[1];
        let mut good = SimResult {
            cycles: scale.measure,
            units: 3,
            ..Default::default()
        };
        for c in 0..p.cfg.n_cores {
            let mut b = Breakdown::default();
            b.charge(
                dbcmp_sim::CycleClass::Compute,
                scale.measure - 100 * c as u64,
            );
            b.charge(dbcmp_sim::CycleClass::DStallMem, 100 * c as u64);
            good.breakdown.merge(&b);
            good.per_core.push(b);
        }
        assert_eq!(p.check(&good), Ok(()));

        // One stall cycle charged to nobody's window.
        let mut bad = good.clone();
        bad.per_core[2].charge(dbcmp_sim::CycleClass::Other, 1);
        bad.breakdown.charge(dbcmp_sim::CycleClass::Other, 1);
        assert!(p.check(&bad).unwrap_err().contains("core 2"));

        // Per-core windows intact, aggregate out of step.
        let mut bad = good.clone();
        bad.breakdown.charge(dbcmp_sim::CycleClass::Compute, 1);
        assert!(p.check(&bad).unwrap_err().contains("aggregate"));

        let mut bad = good.clone();
        bad.units = 0;
        assert!(p.check(&bad).is_err());

        let mut bad = good;
        bad.per_core.pop();
        assert!(p.check(&bad).is_err());
    }
}
