//! One benchmark run: timed iterations of capture → replay with their
//! checks, the traced run's layer probes, and the metrics both report.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use dbcmp_core::{FigScale, Sweep};
use dbcmp_sim::cursor::TraceCursor;
use dbcmp_sim::{CycleClass, MachineBuilder, RemoteCounters, SimResult};
use dbcmp_trace::{CountingSink, Event, ThreadTrace, TraceBundle, Tracer};

use crate::digest::Digest;
use crate::metrics::{per_layer, END_TO_END, TRACE_OVERHEAD};
use crate::report::{Metric, Report};
use crate::spans::Spans;
use crate::stats::median;
use crate::workload::{result_digest, Capture, CaptureStats, Point, Workload, POPULATE};

/// The workload seed when none is given.
pub const DEFAULT_SEED: u64 = 0xC1D7;

/// Repeats of each codec drain in the traced run (the median is kept).
const DRAIN_REPEATS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    /// Measurement budget: iterations start until this many seconds
    /// have passed (at least one always runs).
    pub seconds: u64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// Operation accounting: every capture and every replay point is one
/// operation; one that panics or fails a check counts as failed.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            eprintln!("FAILED: {e}");
        }
    }
}

/// Run `f`, turning a panic into an error carrying its message.
fn catch<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string())
    })
}

/// One pass of the pipeline: every capture, then one sweep over every
/// replay point.
pub struct Iteration {
    pub setup_s: f64,
    pub replay_s: f64,
    pub captures: Vec<Capture>,
    pub points: Vec<Point>,
    pub results: Vec<SimResult>,
    /// Worker threads the sweep ran on.
    pub workers: usize,
    /// Per-capture then per-point digests.
    pub digests: Vec<Digest>,
}

impl Iteration {
    pub fn wall_s(&self) -> f64 {
        self.setup_s + self.replay_s
    }

    pub fn core_cycles(&self) -> u64 {
        self.points.iter().map(Point::core_cycles).sum()
    }

    /// Simulated core-cycles per host second of replay, in millions.
    pub fn mcycles_per_s(&self) -> f64 {
        self.core_cycles() as f64 / self.replay_s / 1e6
    }

    /// The workload's digest over every deterministic simulated output.
    pub fn digest(&self) -> Digest {
        Digest::fold(&self.digests)
    }

    fn bundle(&self, p: &Point) -> &TraceBundle {
        &self.captures[p.capture].bundles[p.bundle]
    }
}

/// Compare an operation's digest with the first iteration's.
fn reproduces(label: &str, first: Option<&[Digest]>, i: usize, d: Digest) -> Result<(), String> {
    match first.map(|f| f[i]) {
        Some(f) if f != d => Err(format!(
            "{label}: digest {d} differs from first iteration's {f}"
        )),
        _ => Ok(()),
    }
}

/// Run one iteration; `start` is when its set-up began. Returns `None`
/// when a capture or the sweep could not produce results (their
/// operations, and the points that could not run, count as failed).
pub fn iteration(
    w: Workload,
    scale: &FigScale,
    spans: &mut Spans,
    start: Instant,
    first: Option<&[Digest]>,
    ops: &mut Ops,
) -> Option<Iteration> {
    let root = spans.open("iteration");
    let out = iteration_inner(w, scale, spans, start, first, ops);
    spans.close(root);
    out
}

fn iteration_inner(
    w: Workload,
    scale: &FigScale,
    spans: &mut Spans,
    start: Instant,
    first: Option<&[Digest]>,
    ops: &mut Ops,
) -> Option<Iteration> {
    let points = w.points(scale);
    let setup = spans.open("setup");
    let mut captures = Vec::new();
    let mut digests = Vec::new();
    let mut panicked = false;
    for (i, label) in w.capture_labels().into_iter().enumerate() {
        match catch(|| w.capture(i, scale, spans)) {
            Ok(c) => {
                let d = c.digest();
                ops.record(c.check().and_then(|()| reproduces(label, first, i, d)));
                digests.push(d);
                captures.push(c);
            }
            Err(e) => {
                panicked = true;
                ops.record(Err(format!("{label}: capture panicked: {e}")));
            }
        }
    }
    spans.close(setup);
    if panicked {
        for p in &points {
            ops.record(Err(format!("{}: not replayed, capture failed", p.label)));
        }
        return None;
    }
    let setup_s = start.elapsed().as_secs_f64();

    let t = crate::now();
    let replay = spans.open("replay");
    let mut sweep = Sweep::new();
    for p in &points {
        sweep.push(p.label.clone(), p.cfg.clone(), p.mode);
    }
    let bundles: Vec<&TraceBundle> = points
        .iter()
        .map(|p| &captures[p.capture].bundles[p.bundle])
        .collect();
    let results = spans.time("core::Sweep::run_each", || {
        catch(|| sweep.run_each(&bundles))
    });
    let results = match results {
        Ok(r) => r,
        Err(e) => {
            spans.close(replay);
            for p in &points {
                ops.record(Err(format!("{}: sweep panicked: {e}", p.label)));
            }
            return None;
        }
    };
    let check = spans.open("check");
    for (p, r) in points.iter().zip(&results) {
        let i = digests.len();
        let d = result_digest(p, r);
        ops.record(p.check(r).and_then(|()| reproduces(&p.label, first, i, d)));
        digests.push(d);
    }
    spans.close(check);
    spans.close(replay);
    let replay_s = t.elapsed().as_secs_f64();
    Some(Iteration {
        setup_s,
        replay_s,
        captures,
        points,
        results,
        workers: sweep.default_workers(),
        digests,
    })
}

/// Replay point `k` alone, as a sequential `MachineBuilder` build +
/// execute (what a user outside `Sweep` runs), and check that it equals
/// the sweep's result.
fn replay_alone(it: &Iteration, k: usize) -> Result<(), String> {
    let p = &it.points[k];
    let alone = catch(|| {
        MachineBuilder::from_config(p.cfg.clone(), p.mode)
            .build(it.bundle(p))
            .expect("benchmark presets are valid")
            .execute()
    });
    match alone {
        Ok(r) if r == it.results[k] => Ok(()),
        Ok(_) => Err(format!("{}: sequential replay differs from Sweep", p.label)),
        Err(e) => Err(format!("{}: replay panicked: {e}", p.label)),
    }
}

/// Re-feed one thread's events through a non-retaining `Tracer`;
/// returns the host seconds the feed took. The events are decoded
/// before the clock starts, so only encoding is timed.
fn encode_thread(t: &ThreadTrace) -> Result<f64, String> {
    let events: Vec<Event> = t.iter().collect();
    let start = crate::now();
    let mut tr = Tracer::streaming(Box::<CountingSink>::default());
    for &e in &events {
        match e {
            Event::Exec { region, instrs } => tr.exec(region, instrs),
            Event::Load { addr, size, dep } if dep => tr.load_dep(addr, size.into()),
            Event::Load { addr, size, .. } => tr.load(addr, size.into()),
            Event::Store { addr, size } => tr.store(addr, size.into()),
            Event::Fence => tr.fence(),
            Event::UnitEnd => tr.unit_end(),
            Event::Block => tr.block(),
            Event::Wake => tr.wake(),
            Event::RemoteSend { bytes } => tr.remote_send(bytes),
            Event::RemoteRecv { bytes } => tr.remote_recv(bytes),
        }
    }
    let out = black_box(tr.finish());
    let secs = start.elapsed().as_secs_f64();
    let counts = |t: &ThreadTrace| {
        [
            t.len() as u64,
            t.instrs(),
            t.loads(),
            t.stores(),
            t.units(),
            t.blocks(),
            t.wakes(),
            t.remote_bytes(),
        ]
    };
    if counts(&out) != counts(t) {
        return Err(format!(
            "re-encoded counts {:?} differ from the capture's {:?}",
            counts(&out),
            counts(t)
        ));
    }
    Ok(secs)
}

/// Drain one thread through a non-wrapping `TraceCursor`; returns the
/// host seconds the drain took.
fn decode_thread(t: &ThreadTrace) -> Result<f64, String> {
    let start = crate::now();
    let mut cur = TraceCursor::new(t, false);
    let mut n = 0usize;
    while let Some(e) = cur.next_event() {
        black_box(e);
        n += 1;
    }
    let secs = start.elapsed().as_secs_f64();
    if n != t.len() {
        return Err(format!(
            "cursor yielded {n} events, trace holds {}",
            t.len()
        ));
    }
    Ok(secs)
}

/// Median over repeats of the summed per-thread drain time of a capture.
fn drain(c: &Capture, f: fn(&ThreadTrace) -> Result<f64, String>) -> Result<f64, String> {
    let mut reps = Vec::with_capacity(DRAIN_REPEATS);
    for _ in 0..DRAIN_REPEATS {
        let mut total = 0.0;
        for b in &c.bundles {
            for t in &b.threads {
                total += f(t).map_err(|e| format!("{}: {e}", c.label))?;
            }
        }
        reps.push(total);
    }
    Ok(median(&reps))
}

/// Host times the traced run's layer probes measured.
struct Probes {
    /// Per point, seconds of its replay alone.
    point_s: Vec<f64>,
    encode_s: f64,
    decode_s: f64,
}

/// The traced run's probes: each replay point alone (checked equal to
/// its sweep result), then the encode and decode drains of every
/// capture.
fn probes(it: &Iteration, spans: &mut Spans, ops: &mut Ops) -> Probes {
    let mut point_s = Vec::new();
    for k in 0..it.points.len() {
        let t = crate::now();
        let outcome = spans.time("probe MachineBuilder::build+execute", || {
            replay_alone(it, k)
        });
        point_s.push(t.elapsed().as_secs_f64());
        ops.record(outcome);
    }
    let (mut encode_s, mut decode_s) = (0.0, 0.0);
    for c in &it.captures {
        let enc = spans.time("probe Tracer::streaming", || drain(c, encode_thread));
        let dec = spans.time("probe TraceCursor", || drain(c, decode_thread));
        encode_s += enc.as_ref().copied().unwrap_or(0.0);
        decode_s += dec.as_ref().copied().unwrap_or(0.0);
        ops.record(enc.map(drop));
        ops.record(dec.map(drop));
    }
    Probes {
        point_s,
        encode_s,
        decode_s,
    }
}

/// Peak resident memory of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Everything one run produced.
pub struct Outcome {
    pub report: Report,
    /// Human-readable lines describing the run.
    pub lines: Vec<String>,
    /// The traced run's span and per-layer JSON.
    pub trace_json: Option<String>,
}

/// Run the workload for the time budget. `t0` is process start.
pub fn run(args: &Args, t0: Instant) -> Outcome {
    let scale = FigScale {
        seed: args.seed,
        ..FigScale::paper()
    };
    let w = args.workload;
    let budget = args.seconds as f64;
    let mut spans = Spans::new(t0);
    let mut ops = Ops::default();
    let mut first: Option<Vec<Digest>> = None;
    let mut last: Option<Iteration> = None;
    // Per iteration, its first four end-to-end values in `END_TO_END`
    // order; traced iterations also keep their number.
    let mut untraced: Vec<[f64; 4]> = Vec::new();
    let mut traced: Vec<[f64; 4]> = Vec::new();
    let mut traced_iters: Vec<u32> = Vec::new();
    // Peak memory of one pass of the pipeline, read after the first
    // iteration. Later iterations raise `VmHWM` by the allocator's
    // retained and fragmented memory, by an amount that depends on how
    // many iterations fit the budget and on thread scheduling.
    let mut first_peak_mb = 0.0;
    let mut n: u32 = 0;
    loop {
        let elapsed = t0.elapsed().as_secs_f64();
        // The traced run spends the first half of its budget untraced and
        // the rest traced, with at least one iteration of each.
        let tracing =
            args.trace && !untraced.is_empty() && (elapsed >= budget / 2.0 || !traced.is_empty());
        let done = if args.trace {
            !traced.is_empty()
        } else {
            n > 0
        };
        if done && elapsed >= budget {
            break;
        }
        // Free the previous iteration's captures before the next set-up.
        last = None;
        spans.set(tracing, n);
        let start = if n == 0 { t0 } else { crate::now() };
        let Some(it) = iteration(w, &scale, &mut spans, start, first.as_deref(), &mut ops) else {
            break;
        };
        spans.set(false, n);
        let times = [it.setup_s, it.replay_s, it.wall_s(), it.mcycles_per_s()];
        eprintln!(
            "iteration {n}{}: setup_s {:.4} replay_s {:.4}",
            if tracing { " (traced)" } else { "" },
            it.setup_s,
            it.replay_s
        );
        if tracing {
            traced.push(times);
            traced_iters.push(n);
        } else {
            untraced.push(times);
        }
        if first.is_none() {
            first = Some(it.digests.clone());
            first_peak_mb = peak_rss_mb();
        }
        last = Some(it);
        n += 1;
    }

    let mut lines = vec![format!(
        "perfbench {} seed={:#x} seconds={} trace={} iterations={} workers={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        n,
        std::thread::available_parallelism().map_or(1, |p| p.get())
    )];
    let digest = first.as_deref().map(Digest::fold);
    if let Some(d) = digest {
        lines.push(format!("digest {} {d}", w.name()));
    }

    let mut trace_json = None;
    let metrics = match (&last, args.trace) {
        (Some(it), false) => {
            ops.record(replay_alone(it, w.spot_check_point()));
            end_to_end(&untraced, first_peak_mb, &mut lines)
        }
        (Some(it), true) => {
            spans.set(true, n);
            let probe_root = spans.open("probes");
            let pr = probes(it, &mut spans, &mut ops);
            spans.close(probe_root);
            spans.set(false, n);
            let wall = |v: &[[f64; 4]]| median(&v.iter().map(|t| t[2]).collect::<Vec<_>>());
            let overhead = wall(&traced) - wall(&untraced);
            let values = layer_values(it, &spans, &traced_iters, &pr, overhead);
            lines.extend(span_lines(&spans));
            let produced: Vec<String> = values.keys().cloned().collect();
            let metrics = catalogue_order(values);
            for m in metrics.iter().filter(|m| produced.contains(&m.name)) {
                lines.push(format!("{:<40} {:>18.6} {}", m.name, m.value, m.unit));
            }
            trace_json = Some(trace_file(w, args, digest, &spans, &metrics));
            metrics
        }
        (None, _) => Vec::new(),
    };
    let correct = ops.failed == 0 && last.is_some();
    Outcome {
        report: Report {
            correct,
            attempted: ops.attempted.max(1),
            failed: ops.failed.max(u64::from(!correct)),
            metrics,
        },
        lines,
        trace_json,
    }
}

/// Medians over the untraced iterations, plus the first iteration's
/// peak memory.
fn end_to_end(times: &[[f64; 4]], peak_mb: f64, lines: &mut Vec<String>) -> Vec<Metric> {
    let col = |k: usize| times.iter().map(|t| t[k]).collect::<Vec<_>>();
    let mut values: Vec<f64> = (0..4).map(|k| median(&col(k))).collect();
    values.push(peak_mb);
    for (k, (name, unit)) in END_TO_END.iter().enumerate() {
        lines.push(if k < 4 {
            let (q1, q3) = crate::stats::quartiles(&col(k));
            format!(
                "{name:<18} {:>12.4} {unit:<10} median of {} iterations, quartiles {q1:.4} .. {q3:.4}",
                values[k],
                times.len()
            )
        } else {
            format!("{name:<18} {:>12.4} {unit:<10} VmHWM after the first iteration", values[k])
        });
    }
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(n, u), v)| Metric::new(n, v, u))
        .collect()
}

/// Every per-layer value this workload produces, by metric name.
fn layer_values(
    it: &Iteration,
    spans: &Spans,
    traced: &[u32],
    pr: &Probes,
    overhead_s: f64,
) -> BTreeMap<String, f64> {
    let mut v = BTreeMap::new();
    let mut put = |k: String, x: f64| {
        v.insert(k, x);
    };
    let per_iter = |names: &[&str]| {
        let xs: Vec<f64> = traced
            .iter()
            .map(|&i| names.iter().fold(0.0, |acc, n| acc + spans.total(i, n)))
            .collect();
        median(&xs)
    };

    // workloads layer.
    let events: u64 = it.captures.iter().map(Capture::events).sum();
    let capture_s = per_iter(&[
        "workloads::capture_oltp",
        "workloads::capture_oltp_interleaved",
        "workloads::capture_dss_dist",
    ]);
    put("workloads.populate_s".into(), per_iter(&[POPULATE]));
    put("workloads.capture_s".into(), capture_s);
    put(
        "workloads.capture_mevents_per_s".into(),
        events as f64 / capture_s / 1e6,
    );
    put(
        "workloads.units_captured".into(),
        it.captures.iter().map(Capture::units).sum::<u64>() as f64,
    );
    for c in &it.captures {
        match c.stats {
            CaptureStats::Plain => {}
            CaptureStats::Contended { stats, cc } => {
                let b = c.label;
                let attempts = stats.commits + stats.deadlock_aborts + stats.conflict_retries;
                put(format!("engine.{b}.commits"), stats.commits as f64);
                put(
                    format!("engine.{b}.deadlock_aborts"),
                    stats.deadlock_aborts as f64,
                );
                put(
                    format!("engine.{b}.waits"),
                    (stats.lock_waits + stats.ordering_waits) as f64,
                );
                put(
                    format!("engine.{b}.commit_ratio"),
                    stats.commits as f64 / attempts.max(1) as f64,
                );
                if b == "PART" {
                    put("engine.PART.cc_remote_msgs".into(), cc.remote_msgs as f64);
                }
            }
            CaptureStats::Dist(d) => {
                put("workloads.exchange_msgs".into(), d.traffic.messages as f64);
                put(
                    "workloads.exchange_bytes".into(),
                    d.traffic.sent_bytes as f64,
                );
                put("workloads.shuffles".into(), d.shuffles as f64);
                put("workloads.broadcasts".into(), d.broadcasts as f64);
            }
        }
    }

    // trace layer.
    let bytes: u64 = it.captures.iter().map(Capture::encoded_bytes).sum();
    put("trace.events".into(), events as f64);
    put(
        "trace.bytes_per_event".into(),
        bytes as f64 / events.max(1) as f64,
    );
    put(
        "trace.encode_mevents_per_s".into(),
        events as f64 / pr.encode_s / 1e6,
    );
    put(
        "trace.decode_mevents_per_s".into(),
        events as f64 / pr.decode_s / 1e6,
    );

    // sim layer: points sharing a label (the distributed instances)
    // aggregate, as `fig_network` aggregates them.
    let mut groups: Vec<&str> = it.points.iter().map(|p| p.group).collect();
    groups.dedup();
    for g in groups {
        let mut bd = dbcmp_sim::Breakdown::default();
        let mut mem = dbcmp_sim::stats::MemCounters::default();
        let mut remote = RemoteCounters::default();
        let (mut uipc, mut secs, mut cycles) = (0.0, 0.0, 0u64);
        for ((p, r), s) in it.points.iter().zip(&it.results).zip(&pr.point_s) {
            if p.group != g {
                continue;
            }
            bd.merge(&r.breakdown);
            mem.merge(&r.mem);
            remote.merge(&r.remote);
            uipc += r.uipc();
            secs += s;
            cycles += p.core_cycles();
        }
        let total = bd.total().max(1) as f64;
        let share =
            |classes: &[CycleClass]| classes.iter().map(|&c| bd.get(c)).sum::<u64>() as f64 / total;
        let sim = [
            ("replay_s", secs),
            ("mcycles_per_s", cycles as f64 / secs / 1e6),
            ("uipc", uipc),
            ("compute_share", share(&[CycleClass::Compute])),
            (
                "istall_share",
                share(&[CycleClass::IStallL2, CycleClass::IStallMem]),
            ),
            ("dstall_l2hit_share", share(&[CycleClass::DStallL2Hit])),
            ("dstall_mem_share", share(&[CycleClass::DStallMem])),
            (
                "dstall_coherence_share",
                share(&[CycleClass::DStallCoherence]),
            ),
            ("remote_stall_share", remote.stall_cycles as f64 / total),
            ("l1d_miss_rate", mem.l1d_miss_rate()),
            ("l2_miss_rate", mem.l2_miss_rate()),
            ("l2_queue_cycles", mem.l2_queue_cycles as f64),
        ];
        for (f, x) in sim {
            put(format!("sim.{g}.{f}"), x);
        }
    }

    // core layer.
    let sweep_s = per_iter(&["core::Sweep::run_each"]);
    put("core.sweep_s".into(), sweep_s);
    put(
        "core.sweep_efficiency".into(),
        pr.point_s.iter().sum::<f64>() / (it.workers as f64 * sweep_s),
    );
    put(TRACE_OVERHEAD.0.into(), overhead_s);
    v
}

/// Order values as the catalogue lists them; a metric this workload does
/// not produce reads 0. Panics on a value the catalogue lacks.
fn catalogue_order(mut values: BTreeMap<String, f64>) -> Vec<Metric> {
    let out: Vec<Metric> = per_layer()
        .into_iter()
        .map(|(n, u)| {
            let v = values.remove(&n).unwrap_or(0.0);
            Metric::new(n, v, u)
        })
        .collect();
    assert!(
        values.is_empty(),
        "uncatalogued metrics: {:?}",
        values.keys()
    );
    out
}

/// Self time per span name, and the time no span covers.
fn span_lines(spans: &Spans) -> Vec<String> {
    let mut out = vec!["self time by span (traced iterations and probes):".to_string()];
    for (name, secs, count) in spans.self_time_by_name() {
        out.push(format!("  {name:<40} {secs:>10.4} s  ({count} spans)"));
    }
    out.push(format!(
        "  {:<40} {:>10.4} s",
        "(no span)",
        spans.uncovered_s()
    ));
    out
}

/// The traced run's output file: spans with self times, the uncovered
/// time, the digest and the per-layer metrics.
fn trace_file(
    w: Workload,
    args: &Args,
    digest: Option<Digest>,
    spans: &Spans,
    metrics: &[Metric],
) -> String {
    use crate::report::{json_num, json_str};
    let m: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "    {}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(&m.unit)
            )
        })
        .collect();
    format!(
        "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"digest\": {},\n  \"uncovered_s\": {},\n  \"metrics\": {{\n{}\n  }},\n  \"spans\": {}\n}}\n",
        json_str(w.name()),
        args.seed,
        json_str(&digest.map_or(String::new(), |d| d.to_string())),
        json_num(spans.uncovered_s()),
        m.join(",\n"),
        spans.to_json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small but complete scale: every workload captures and replays
    /// in seconds.
    fn tiny(seed: u64) -> FigScale {
        FigScale {
            seed,
            ..FigScale::quick()
        }
    }

    #[test]
    fn digest_is_stable_across_in_process_runs() {
        for w in Workload::ALL {
            let scale = tiny(DEFAULT_SEED);
            let mut spans = Spans::new(crate::now());
            let mut ops = Ops::default();
            let a =
                iteration(w, &scale, &mut spans, crate::now(), None, &mut ops).expect("first run");
            let b = iteration(
                w,
                &scale,
                &mut spans,
                crate::now(),
                Some(&a.digests),
                &mut ops,
            )
            .expect("second run");
            assert_eq!(ops.failed, 0, "{}", w.name());
            assert_eq!(a.digest(), b.digest(), "{}", w.name());
            let per_iter = (a.captures.len() + a.points.len()) as u64;
            assert_eq!(ops.attempted, 2 * per_iter);
        }
    }

    #[test]
    fn a_different_seed_moves_the_digest() {
        let w = Workload::OltpSweep;
        let mut spans = Spans::new(crate::now());
        let mut ops = Ops::default();
        let a = iteration(
            w,
            &tiny(DEFAULT_SEED),
            &mut spans,
            crate::now(),
            None,
            &mut ops,
        )
        .expect("run");
        let b = iteration(w, &tiny(1), &mut spans, crate::now(), None, &mut ops).expect("run");
        assert_ne!(a.digest(), b.digest());
        // Checked against the other seed's digests, every operation fails.
        let mut strict = Ops::default();
        iteration(
            w,
            &tiny(1),
            &mut spans,
            crate::now(),
            Some(&a.digests),
            &mut strict,
        );
        assert_eq!(strict.failed, strict.attempted);
    }

    #[test]
    fn probes_reproduce_the_sweep_and_the_codec() {
        let w = Workload::DssNetwork;
        let mut spans = Spans::new(crate::now());
        let mut ops = Ops::default();
        let it = iteration(
            w,
            &tiny(DEFAULT_SEED),
            &mut spans,
            crate::now(),
            None,
            &mut ops,
        )
        .expect("run");
        let pr = probes(&it, &mut spans, &mut ops);
        assert_eq!(ops.failed, 0);
        assert_eq!(pr.point_s.len(), it.points.len());
        assert!(pr.encode_s > 0.0 && pr.decode_s > 0.0);
    }
}
