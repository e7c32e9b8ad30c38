//! End-to-end and per-layer benchmark of the capture → bundle → replay
//! pipeline. See `README.md` beside this crate for the workloads, the
//! metrics and how they relate.

pub mod affinity;
pub mod digest;
pub mod metrics;
pub mod report;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workload;

use std::time::Instant;

/// The benchmark's one wall-clock read: every host time it reports
/// starts and ends here.
#[allow(clippy::disallowed_methods)]
pub fn now() -> Instant {
    // lint:allow(wall-clock): the benchmark measures host time; no clock value reaches a capture or a simulated result
    Instant::now()
}
