//! Property tests for the simulator: the cache behaves like a reference
//! model, cycle accounting conserves time, and replay is deterministic.

use dbcmp_sim::cache::Cache;
use dbcmp_sim::{CoreKind, Interconnect, Machine, MachineConfig, RunMode};
use dbcmp_trace::{CodeRegions, TraceBundle, Tracer};
use proptest::prelude::*;
use std::collections::VecDeque;

/// Reference model: fully explicit per-set LRU lists.
struct RefCache {
    sets: usize,
    assoc: usize,
    lists: Vec<VecDeque<u64>>,
}

impl RefCache {
    fn new(sets: usize, assoc: usize) -> Self {
        RefCache {
            sets,
            assoc,
            lists: vec![VecDeque::new(); sets],
        }
    }

    /// Returns true on hit; always leaves the line MRU.
    fn access(&mut self, line: u64) -> bool {
        let set = (line % self.sets as u64) as usize;
        let l = &mut self.lists[set];
        if let Some(pos) = l.iter().position(|&x| x == line) {
            l.remove(pos);
            l.push_back(line);
            true
        } else {
            if l.len() == self.assoc {
                l.pop_front();
            }
            l.push_back(line);
            false
        }
    }
}

proptest! {
    // Deterministic in CI: the vendored proptest seeds each property's RNG
    // from the test's fully-qualified name; this bounds the case count.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tag-array cache agrees with the explicit-LRU reference model on
    /// every access of an arbitrary stream.
    #[test]
    fn cache_matches_reference_lru(lines in prop::collection::vec(0u64..256, 1..2000)) {
        // 16 sets x 4 ways = 4 KB.
        let mut cache = Cache::new(4096, 4);
        let mut reference = RefCache::new(16, 4);
        for &line in &lines {
            let hit_model = reference.access(line);
            let hit_cache = if cache.probe(line).is_some() {
                true
            } else {
                cache.insert(line);
                false
            };
            prop_assert_eq!(hit_cache, hit_model, "divergence on line {}", line);
        }
    }

    /// For any synthetic workload, every measured cycle lands in exactly
    /// one bucket (per-core breakdowns sum to the window) and replay is
    /// deterministic — on fat, lean and mixed machines, with and without
    /// remote markers over a 10GbE link (long sleeps across the window
    /// edges), in both run modes.
    #[test]
    fn accounting_conserves_cycles_and_is_deterministic(
        seeds in prop::collection::vec((0u64..1024, 1u32..64), 1..8),
        machine in 0u8..3,
        remote in any::<bool>(),
        completion in any::<bool>(),
    ) {
        let mut regions = CodeRegions::new();
        let r = regions.add("w", 8 << 10, 1.0);
        let threads: Vec<_> = seeds
            .iter()
            .map(|&(base, n)| {
                let mut t = Tracer::recording();
                for k in 0..(n as u64) * 20 {
                    t.exec(r, 10);
                    t.load(0x10000 + (base + k) * 64, 8);
                    if k % 16 == 7 {
                        t.store(0x80000 + (k % 32) * 64, 8);
                    }
                    if remote && k % 64 == 30 {
                        t.remote_send(96);
                        t.remote_recv(512);
                    }
                }
                t.unit_end();
                t.finish()
            })
            .collect();
        let bundle = TraceBundle::new(regions, threads);
        let mut cfg = match machine {
            0 => MachineConfig::fat_cmp(2, 1 << 20, 8),
            1 => MachineConfig::lean_cmp(2, 1 << 20, 8),
            _ => {
                let mut c = MachineConfig::fat_cmp(2, 1 << 20, 8);
                c.slots = vec![CoreKind::fat(), CoreKind::lean()];
                c
            }
        };
        cfg.interconnect = Interconnect::network_10g();
        let mode = if completion {
            RunMode::Completion { max_cycles: 20_000_000 }
        } else {
            RunMode::Throughput { warmup: 1000, measure: 5000 }
        };
        let a = Machine::run(cfg.clone(), &bundle, mode);
        let b = Machine::run(cfg, &bundle, mode);

        // Conservation. Throughput: every active core's breakdown sums to
        // the window. Completion: a core is charged from cycle 0 until it
        // runs out of work, and the core that finishes last is charged
        // for every cycle of the run.
        let totals: Vec<u64> = a.per_core.iter().map(|c| c.total()).collect();
        if completion {
            prop_assert!(totals.iter().all(|&t| t <= a.cycles), "{totals:?} > {}", a.cycles);
            prop_assert_eq!(totals.iter().max().copied(), Some(a.cycles));
        } else {
            for total in totals {
                prop_assert!(total == 0 || total == 5000, "core accounted {total} of 5000");
            }
        }
        // Determinism.
        prop_assert_eq!(a, b);
    }
}
