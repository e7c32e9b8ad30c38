//! Experiment runner: single runs and parallel sweeps.
//!
//! A [`Sweep`] is a labeled list of `(MachineConfig, RunMode)` points
//! evaluated against shared trace bundles. [`Sweep::run`] fans the
//! points out over OS threads (`std::thread::scope`); every point builds
//! its own machine from scratch against the shared `&TraceBundle`, so
//! the results are *byte-identical* to [`Sweep::run_sequential`] and are
//! returned in input order — parallelism changes wall-clock time only.

use std::sync::atomic::{AtomicUsize, Ordering};

use dbcmp_sim::{Machine, MachineBuilder, MachineConfig, RunMode, SimResult};
use dbcmp_trace::TraceBundle;

/// Simulation windows.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    pub warmup: u64,
    pub measure: u64,
    /// Bound for completion-mode runs.
    pub max_cycles: u64,
}

impl RunSpec {
    /// The throughput-mode [`RunMode`] for these windows.
    pub fn throughput(self) -> RunMode {
        RunMode::Throughput {
            warmup: self.warmup,
            measure: self.measure,
        }
    }

    /// The completion-mode [`RunMode`] for these windows.
    pub fn completion(self) -> RunMode {
        RunMode::Completion {
            max_cycles: self.max_cycles,
        }
    }
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            warmup: 400_000,
            measure: 1_600_000,
            max_cycles: 400_000_000,
        }
    }
}

/// Saturated-throughput run (the paper's UIPC metric).
pub fn run_throughput(cfg: MachineConfig, bundle: &TraceBundle, spec: RunSpec) -> SimResult {
    Machine::run(cfg, bundle, spec.throughput())
}

/// Run-to-completion (the paper's response-time metric).
pub fn run_completion(cfg: MachineConfig, bundle: &TraceBundle, spec: RunSpec) -> SimResult {
    Machine::run(cfg, bundle, spec.completion())
}

/// One labeled point of a sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    pub label: String,
    pub cfg: MachineConfig,
    pub mode: RunMode,
}

impl SweepPoint {
    /// Estimated replay cost, for dispatch order: hardware contexts ×
    /// simulated cycles (the warm-up plus measure window, or the
    /// completion bound).
    pub fn cost(&self) -> u128 {
        let cycles = match self.mode {
            RunMode::Throughput { warmup, measure } => warmup.saturating_add(measure),
            RunMode::Completion { max_cycles } => max_cycles,
        };
        self.cfg.total_contexts() as u128 * cycles as u128
    }
}

/// A labeled list of machine-config points evaluated against shared
/// trace bundles, in parallel or sequentially, with results always in
/// input order.
///
/// ```
/// use dbcmp_core::experiment::{RunSpec, Sweep};
/// use dbcmp_core::machines::{fc_cmp, lc_cmp, L2Spec};
/// use dbcmp_workloads::{build_tpch, capture_dss, CaptureOptions, QueryKind, TpchScale};
///
/// // Capture a tiny two-client DSS workload...
/// let (mut db, h) = build_tpch(TpchScale::tiny(), 7);
/// let bundle = capture_dss(&mut db, &h, &[QueryKind::Q6], CaptureOptions::new(2, 1, 7));
///
/// // ...and race the two camps on it; the points fan out across OS
/// // threads, results come back in input order.
/// let spec = RunSpec { warmup: 10_000, measure: 50_000, max_cycles: u64::MAX };
/// let results = Sweep::new()
///     .point("fat", fc_cmp(2, 8 << 20, L2Spec::Cacti), spec.throughput())
///     .point("lean", lc_cmp(2, 8 << 20, L2Spec::Cacti), spec.throughput())
///     .run(&bundle);
/// assert_eq!(results.len(), 2);
/// assert!(results.iter().all(|r| r.cycles > 0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Sweep {
    points: Vec<SweepPoint>,
}

impl Sweep {
    /// An empty sweep.
    pub fn new() -> Self {
        Sweep { points: Vec::new() }
    }

    /// Append one point (builder style).
    pub fn point(mut self, label: impl Into<String>, cfg: MachineConfig, mode: RunMode) -> Self {
        self.push(label, cfg, mode);
        self
    }

    /// Append one point in place.
    pub fn push(&mut self, label: impl Into<String>, cfg: MachineConfig, mode: RunMode) {
        self.points.push(SweepPoint {
            label: label.into(),
            cfg,
            mode,
        });
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    pub fn points(&self) -> &[SweepPoint] {
        &self.points
    }

    /// Run every point against one shared bundle, in parallel. Results
    /// come back in input order. Panics on an invalid config (configs
    /// are validated up front, before any thread spawns); assemble
    /// points through `MachineBuilder::into_config` to handle
    /// `ConfigError` yourself.
    pub fn run(&self, bundle: &TraceBundle) -> Vec<SimResult> {
        self.run_each(&vec![bundle; self.points.len()])
    }

    /// Worker threads [`Sweep::run`] will use: one per available CPU,
    /// capped at the point count. On a single-CPU host this is 1 and the
    /// parallel entry points degrade to the sequential path (results are
    /// identical either way; only wall-clock differs).
    pub fn default_workers(&self) -> usize {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(self.points.len())
    }

    /// Run every point against its own bundle (`bundles[i]` pairs with
    /// point `i` — client-count sweeps replay growing subsets of one
    /// capture), in parallel, results in input order. Points are
    /// dispatched costliest first ([`SweepPoint::cost`]).
    pub fn run_each(&self, bundles: &[&TraceBundle]) -> Vec<SimResult> {
        self.run_each_with_workers(bundles, self.default_workers())
    }

    /// [`Sweep::run_each`] with an explicit worker count — the
    /// equivalence suite pins `workers > 1` so the cross-thread path is
    /// exercised even on single-CPU hosts.
    pub fn run_each_with_workers(
        &self,
        bundles: &[&TraceBundle],
        workers: usize,
    ) -> Vec<SimResult> {
        self.validate_all(bundles);
        let n = self.points.len();
        let workers = workers.min(n);
        if workers <= 1 {
            return self.run_each_sequential(bundles);
        }
        // Costliest points first, so the longest one does not start last
        // and leave the other workers idle. The sort is stable: equal-cost
        // points keep their input order.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(self.points[i].cost()));
        let next = AtomicUsize::new(0);
        let mut results: Vec<Option<SimResult>> = (0..n).map(|_| None).collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let (next, order) = (&next, &order);
                    s.spawn(move || {
                        let mut out = Vec::new();
                        while let Some(&i) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                            out.push((i, run_point(&self.points[i], bundles[i])));
                        }
                        out
                    })
                })
                .collect();
            for h in handles {
                for (i, r) in h.join().expect("sweep worker panicked") {
                    results[i] = Some(r);
                }
            }
        });
        results
            .into_iter()
            .map(|r| r.expect("every sweep point produced a result"))
            .collect()
    }

    /// Sequential reference run of the same points — byte-identical to
    /// [`Sweep::run`] (asserted by the equivalence suite), used for
    /// wall-clock comparisons.
    pub fn run_sequential(&self, bundle: &TraceBundle) -> Vec<SimResult> {
        self.run_each_sequential(&vec![bundle; self.points.len()])
    }

    /// Sequential per-point-bundle run (see [`Sweep::run_each`]).
    pub fn run_each_sequential(&self, bundles: &[&TraceBundle]) -> Vec<SimResult> {
        self.validate_all(bundles);
        self.points
            .iter()
            .zip(bundles)
            .map(|(p, b)| run_point(p, b))
            .collect()
    }

    fn validate_all(&self, bundles: &[&TraceBundle]) {
        assert_eq!(
            bundles.len(),
            self.points.len(),
            "one bundle per sweep point"
        );
        for p in &self.points {
            if let Err(e) = p.cfg.validate() {
                panic!("sweep point '{}': invalid machine config: {e}", p.label);
            }
        }
    }
}

/// One keyed sweep point: label, machine, mode, the bundle it replays,
/// and an arbitrary key handed back alongside the result.
pub struct KeyedPoint<'a, K> {
    pub label: String,
    pub cfg: MachineConfig,
    pub mode: RunMode,
    pub bundle: &'a TraceBundle,
    pub key: K,
}

/// Run keyed points as one parallel sweep and return `(key, result)`
/// pairs in input order. The figure generators build their grids this
/// way so the config/bundle/key association is structural — one tuple
/// per point — instead of three positionally-aligned vectors.
pub fn run_keyed<K>(points: Vec<KeyedPoint<'_, K>>) -> Vec<(K, SimResult)> {
    let mut sweep = Sweep::new();
    let mut bundles = Vec::new();
    let mut keys = Vec::new();
    for p in points {
        sweep.push(p.label, p.cfg, p.mode);
        bundles.push(p.bundle);
        keys.push(p.key);
    }
    keys.into_iter().zip(sweep.run_each(&bundles)).collect()
}

fn run_point(p: &SweepPoint, bundle: &TraceBundle) -> SimResult {
    MachineBuilder::from_config(p.cfg.clone(), p.mode)
        .build(bundle)
        .expect("validated above")
        .execute()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machines::{fc_cmp, lc_cmp, L2Spec};
    use crate::taxonomy::WorkloadKind;
    use crate::workload::{CapturedWorkload, FigScale};

    #[test]
    fn throughput_and_completion_run() {
        let scale = FigScale::quick();
        let w = CapturedWorkload::unsaturated(WorkloadKind::Dss, &scale);
        let cfg = fc_cmp(1, 1 << 20, L2Spec::Cacti);
        let spec = RunSpec {
            warmup: 10_000,
            measure: 50_000,
            max_cycles: 100_000_000,
        };
        let t = run_throughput(cfg.clone(), &w.bundle, spec);
        assert!(t.instrs > 0);
        let c = run_completion(cfg, &w.bundle, spec);
        assert!(c.units >= 1, "query must complete");
        assert!(c.avg_unit_cycles.unwrap() > 0.0);
    }

    /// Dispatch cost is hardware contexts × simulated cycles: a 4-core
    /// lean chip (16 contexts) outweighs a 4-core fat chip, and a longer
    /// window outweighs a shorter one.
    #[test]
    fn sweep_point_cost_counts_contexts_and_cycles() {
        let spec = RunSpec {
            warmup: 1_000,
            measure: 9_000,
            max_cycles: 50_000,
        };
        let sweep = Sweep::new()
            .point("fat", fc_cmp(4, 16 << 20, L2Spec::Cacti), spec.throughput())
            .point(
                "lean",
                lc_cmp(4, 16 << 20, L2Spec::Cacti),
                spec.throughput(),
            )
            .point(
                "fat-long",
                fc_cmp(4, 16 << 20, L2Spec::Cacti),
                spec.completion(),
            );
        let costs: Vec<u128> = sweep.points().iter().map(SweepPoint::cost).collect();
        assert_eq!(costs, [4 * 10_000, 16 * 10_000, 4 * 50_000]);
    }

    #[test]
    fn parallel_sweep_matches_sequential_in_order() {
        let scale = FigScale::quick();
        let w = CapturedWorkload::saturated(WorkloadKind::Dss, &scale);
        let spec = RunSpec {
            warmup: 5_000,
            measure: 20_000,
            max_cycles: 50_000_000,
        };
        let sweep = Sweep::new()
            .point("fc1", fc_cmp(1, 1 << 20, L2Spec::Cacti), spec.throughput())
            .point("lc1", lc_cmp(1, 1 << 20, L2Spec::Cacti), spec.throughput())
            .point("fc2", fc_cmp(2, 2 << 20, L2Spec::Cacti), spec.completion())
            .point("lc2", lc_cmp(2, 2 << 20, L2Spec::Cacti), spec.completion());
        let par = sweep.run(&w.bundle);
        let seq = sweep.run_sequential(&w.bundle);
        assert_eq!(par.len(), 4);
        assert_eq!(par, seq, "parallel and sequential sweeps must be identical");
        // Order is input order: machine names line up with point labels.
        assert!(par[0].machine.starts_with("FC-CMP 1x"));
        assert!(par[1].machine.starts_with("LC-CMP 1x"));
    }

    #[test]
    #[should_panic(expected = "invalid machine config")]
    fn sweep_rejects_degenerate_point_before_running() {
        let scale = FigScale::quick();
        let w = CapturedWorkload::unsaturated(WorkloadKind::Dss, &scale);
        let mut cfg = fc_cmp(1, 1 << 20, L2Spec::Cacti);
        cfg.n_cores = 0;
        Sweep::new()
            .point("bad", cfg, RunSpec::default().throughput())
            .run(&w.bundle);
    }
}
