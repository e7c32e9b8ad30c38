//! The metric catalogue: every name the benchmark reports, with its
//! unit. `BENCHMARK.json` lists the same names (a test keeps them in
//! step).

use crate::workload::BACKENDS;

/// End-to-end metrics, reported by the untraced run. Host-side only.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("replay_s", "s"),
    ("wall_s", "s"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("peak_rss_mb", "MB"),
];

/// Replay-point labels `<p>` of the `sim.<p>.*` metrics, over all
/// workloads.
pub const SIM_POINTS: [&str; 8] = [
    "SMP", "FC-CMP", "LC-CMP", "2PL", "PART", "ORD", "NUMA", "10GbE",
];

/// Per-point simulator metrics: host rates first, then simulated model
/// values.
pub const SIM_FIELDS: [(&str, &str); 12] = [
    ("replay_s", "s"),
    ("mcycles_per_s", "Mcycles/s"),
    ("uipc", "instr/cycle"),
    ("compute_share", "fraction"),
    ("istall_share", "fraction"),
    ("dstall_l2hit_share", "fraction"),
    ("dstall_mem_share", "fraction"),
    ("dstall_coherence_share", "fraction"),
    ("remote_stall_share", "fraction"),
    ("l1d_miss_rate", "fraction"),
    ("l2_miss_rate", "fraction"),
    ("l2_queue_cycles", "cycles"),
];

const WORKLOADS_LAYER: [(&str, &str); 8] = [
    ("workloads.populate_s", "s"),
    ("workloads.capture_s", "s"),
    ("workloads.capture_mevents_per_s", "Mevents/s"),
    ("workloads.units_captured", "count"),
    ("workloads.exchange_msgs", "count"),
    ("workloads.exchange_bytes", "bytes"),
    ("workloads.shuffles", "count"),
    ("workloads.broadcasts", "count"),
];

const ENGINE_FIELDS: [(&str, &str); 4] = [
    ("commits", "count"),
    ("deadlock_aborts", "count"),
    ("waits", "count"),
    ("commit_ratio", "fraction"),
];

const TRACE_LAYER: [(&str, &str); 4] = [
    ("trace.events", "count"),
    ("trace.bytes_per_event", "bytes/event"),
    ("trace.encode_mevents_per_s", "Mevents/s"),
    ("trace.decode_mevents_per_s", "Mevents/s"),
];

const CORE_LAYER: [(&str, &str); 2] =
    [("core.sweep_s", "s"), ("core.sweep_efficiency", "fraction")];

/// The traced run's own cost: traced minus untraced `wall_s`.
pub const TRACE_OVERHEAD: (&str, &str) = ("bench.trace_overhead_s", "s");

/// Every per-layer metric, in report order. A workload reports all of
/// them; a point or backend the workload does not run reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |n: String, u: &'static str| out.push((n, u));
    for (n, u) in WORKLOADS_LAYER {
        add(n.to_string(), u);
    }
    for (b, _) in BACKENDS {
        for (f, u) in ENGINE_FIELDS {
            add(format!("engine.{b}.{f}"), u);
        }
    }
    add("engine.PART.cc_remote_msgs".to_string(), "count");
    for (n, u) in TRACE_LAYER {
        add(n.to_string(), u);
    }
    for p in SIM_POINTS {
        for (f, u) in SIM_FIELDS {
            add(format!("sim.{p}.{f}"), u);
        }
    }
    for (n, u) in CORE_LAYER {
        add(n.to_string(), u);
    }
    add(TRACE_OVERHEAD.0.to_string(), TRACE_OVERHEAD.1);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::json::parse;

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut all: Vec<(String, &str)> = per_layer();
        all.extend(END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)));
        assert!(all.len() <= 128 + END_TO_END.len());
        for (n, u) in &all {
            assert!(valid_name(n), "{n}");
            assert!(valid_unit(u), "{n}: {u}");
        }
        let mut names: Vec<&String> = all.iter().map(|(n, _)| n).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
    }

    #[test]
    fn manifest_lists_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v = parse(&text);
        let listed = |key: &str| -> Vec<(String, String)> {
            v.get(key)
                .items()
                .iter()
                .map(|m| {
                    (
                        m.get("name").str().to_string(),
                        m.get("unit").str().to_string(),
                    )
                })
                .collect()
        };
        let want_e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), want_e2e);
        let want_layer: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), want_layer);
        let workloads: Vec<String> = v
            .get("workloads")
            .items()
            .iter()
            .map(|w| w.get("name").str().to_string())
            .collect();
        let known: Vec<String> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert!(workloads.iter().all(|w| known.contains(w)), "{workloads:?}");
    }
}
