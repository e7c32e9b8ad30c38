//! Lean-camp core: narrow, in-order, heavily multithreaded (Niagara-style).
//!
//! Each cycle the core picks the next runnable hardware context in
//! round-robin order and issues up to `width` instructions from it. Any L1
//! miss (data or instruction) blocks that context until the fill returns;
//! meanwhile the other contexts keep the pipeline busy. A cycle counts as
//! computation if *any* instruction issued; otherwise it is charged to the
//! stall class of the longest-blocked context — when every context is
//! waiting on memory, that is precisely the exposed data-stall time the
//! paper measures for lean cores under unsaturated load (§4).

use dbcmp_trace::region::CodeRegions;
use dbcmp_trace::Event;

use crate::config::{CoreKind, MachineConfig};
use crate::core::Core;
use crate::ctx::{
    consume_meta_event, data_stall_class, fetch_check, finish_thread, CtxBase, MAX_META_EVENTS,
};
use crate::cursor::{PendingStore, ThreadState};
use crate::machine::MachineCtl;
use crate::memsys::MemSys;
use crate::stats::CycleClass;

#[derive(Debug)]
pub struct LeanCore {
    pub ctxs: Vec<CtxBase>,
    rr: usize,
    width: usize,
    pipeline_depth: u64,
    quantum: u64,
    switch_penalty: u64,
    /// Instructions retired during the measurement window.
    pub retired: u64,
}

impl LeanCore {
    pub fn new(cfg: &MachineConfig, contexts: usize, width: usize) -> Self {
        LeanCore {
            ctxs: (0..contexts)
                .map(|_| CtxBase::new(cfg.store_buffer, cfg.quantum))
                .collect(),
            rr: 0,
            width: width.max(1),
            // The slot's own depth (see FatCore::new).
            pipeline_depth: CoreKind::Lean { width, contexts }.pipeline_depth(),
            quantum: cfg.quantum,
            switch_penalty: cfg.switch_penalty,
            retired: 0,
        }
    }
}

impl Core for LeanCore {
    fn contexts(&self) -> &[CtxBase] {
        &self.ctxs
    }

    fn contexts_mut(&mut self) -> &mut [CtxBase] {
        &mut self.ctxs
    }

    fn retired_mut(&mut self) -> &mut u64 {
        &mut self.retired
    }

    /// Simulate one cycle. Returns the class to charge, or `None` if the
    /// core has no threads at all (inactive — not accounted).
    fn cycle(
        &mut self,
        core: usize,
        now: u64,
        mem: &mut MemSys,
        threads: &mut [ThreadState<'_>],
        regions: &CodeRegions,
        ctl: &mut MachineCtl,
    ) -> Option<CycleClass> {
        // Retire finished threads and schedule queued ones.
        let mut any_thread = false;
        for ctx in &mut self.ctxs {
            if let Some(t) = ctx.thread {
                if threads[t].done {
                    ctx.rotate_thread(false, self.quantum, self.switch_penalty, now);
                }
            } else if !ctx.run_q.is_empty() {
                ctx.rotate_thread(false, self.quantum, 0, now);
            }
            any_thread |= ctx.thread.is_some();
        }
        if !any_thread {
            return None;
        }

        let chosen = self.pick(now);
        self.advance_rr(1);
        let Some(i) = chosen else {
            return Some(self.stalled_class(now));
        };

        // OS quantum.
        let ctx = &mut self.ctxs[i];
        if ctx.quantum_left == 0 && !ctx.run_q.is_empty() {
            ctx.rotate_thread(true, self.quantum, self.switch_penalty, now);
            return Some(CycleClass::Other);
        }
        ctx.quantum_left = ctx.quantum_left.saturating_sub(1);

        // Issue up to `width` instructions from this context.
        let (issued, progress) = issue_from(
            ctx,
            core,
            now,
            self.width,
            self.pipeline_depth,
            mem,
            threads,
            regions,
            ctl,
        );
        if issued > 0 {
            self.retired += issued as u64;
            ctl.instrs += issued as u64;
        }
        if progress > 0 {
            Some(CycleClass::Compute)
        } else {
            // The context blocked on its very first slot this cycle.
            Some(self.ctxs[i].blocked_class)
        }
    }

    /// Needs every bound thread live and no unbound context with threads
    /// queued, so scheduling is a no-op. Then each coming cycle either
    /// finds every bound context blocked (an idle stretch, run in one
    /// step up to the earliest unblock, charged to the longest-blocked
    /// context), or picks a context that is quiet: its quantum does not
    /// expire, nothing is held, and its exec run has `width`
    /// instructions left in the fetched I-line. A quiet cycle issues
    /// them through the same code as `cycle` and is charged to Compute.
    fn span(
        &mut self,
        now: u64,
        end: u64,
        threads: &mut [ThreadState<'_>],
        regions: &CodeRegions,
        ctl: &mut MachineCtl,
    ) -> Option<(u64, CycleClass)> {
        for ctx in &self.ctxs {
            match ctx.thread {
                Some(t) if threads[t].done => return None,
                None if !ctx.run_q.is_empty() => return None,
                _ => {}
            }
        }
        let width = self.width as u64;
        let mut at = now + 1;
        let mut charged: Option<CycleClass> = None;
        while at < end {
            let Some(i) = self.pick(at) else {
                // Every bound context stays blocked until the earliest
                // unblock, so the charged context does not change.
                let class = self.stalled_class(at);
                let wake = self
                    .ctxs
                    .iter()
                    .filter(|c| c.thread.is_some())
                    .map(|c| c.blocked_until.min(end))
                    .min();
                let Some(wake) = wake.filter(|_| charged.is_none_or(|s| s == class)) else {
                    break;
                };
                self.advance_rr(wake - at);
                charged = Some(class);
                at = wake;
                continue;
            };
            if charged.is_some_and(|s| s != CycleClass::Compute) {
                break;
            }
            let ctx = &mut self.ctxs[i];
            if ctx.quantum_left == 0 && !ctx.run_q.is_empty() {
                break; // the quantum expires
            }
            let Some(t) = ctx.thread else { break };
            let th = &mut threads[t];
            if th.pending_store.is_some() || th.pending_fence {
                break;
            }
            let Some((region, left)) = th.cur_exec else {
                break; // the next event is read from the trace
            };
            let in_line = th.fetched_line_left(region, regions).unwrap_or(0);
            if width > in_line.min(left as u64) {
                break; // issue would fetch a new line or read the trace
            }
            ctx.quantum_left = ctx.quantum_left.saturating_sub(1);
            ctx.drain_stores(at);
            let mut issued = 0;
            while issued < self.width {
                issued += 1;
                if issue_exec(ctx, th, regions, at, self.pipeline_depth) {
                    break;
                }
            }
            self.retired += issued as u64;
            ctl.instrs += issued as u64;
            self.advance_rr(1);
            charged = Some(CycleClass::Compute);
            at += 1;
        }
        charged.map(|class| (at, class))
    }
}

impl LeanCore {
    /// The first runnable context at `now`, round-robin from the pointer.
    /// Wrapped by compare rather than `%`, which would divide per step.
    fn pick(&self, now: u64) -> Option<usize> {
        let n = self.ctxs.len();
        let mut i = self.rr;
        for _ in 0..n {
            if self.ctxs[i].runnable(now) {
                return Some(i);
            }
            i += 1;
            if i == n {
                i = 0;
            }
        }
        None
    }

    /// Advance the round-robin pointer by `cycles` picks.
    fn advance_rr(&mut self, cycles: u64) {
        let n = self.ctxs.len();
        self.rr += if cycles == 1 {
            1
        } else {
            (cycles % n as u64) as usize
        };
        if self.rr >= n {
            self.rr -= n;
        }
    }

    /// The class of a cycle in which no context is runnable: the
    /// longest-blocked context's (the first with the smallest
    /// `blocked_since`).
    fn stalled_class(&self, now: u64) -> CycleClass {
        self.ctxs
            .iter()
            .filter(|c| c.thread.is_some() && c.blocked_until > now)
            .min_by_key(|c| c.blocked_since)
            .map(|c| c.blocked_class)
            .unwrap_or(CycleClass::Other)
    }
}

/// Issue one instruction of the thread's current exec run from the
/// fetched I-line (the caller has done the fetch check). Returns `true`
/// when it mispredicts: the context then blocks for the pipeline depth.
#[inline]
fn issue_exec(
    ctx: &mut CtxBase,
    th: &mut ThreadState<'_>,
    regions: &CodeRegions,
    now: u64,
    pipeline_depth: u64,
) -> bool {
    let Some((region, left)) = th.cur_exec else {
        return false;
    };
    th.advance_instrs(region, regions, 1);
    th.cur_exec = if left > 1 {
        Some((region, left - 1))
    } else {
        None
    };
    th.mispred_acc += regions.get(region).mispred_per_instr();
    if th.mispred_acc >= 1.0 {
        th.mispred_acc -= 1.0;
        ctx.block(now + pipeline_depth, CycleClass::Other, now);
        return true;
    }
    false
}

/// Issue up to `width` instructions from one context; returns
/// `(issued, progress)` — `issued` counts retired instructions (for IPC),
/// `progress` excludes an instruction that immediately blocked (so a cycle
/// spent only initiating a miss is charged as a stall, not computation).
/// On a miss the context is left blocked.
#[allow(clippy::too_many_arguments)]
fn issue_from(
    ctx: &mut CtxBase,
    core: usize,
    now: u64,
    width: usize,
    pipeline_depth: u64,
    mem: &mut MemSys,
    threads: &mut [ThreadState<'_>],
    regions: &CodeRegions,
    ctl: &mut MachineCtl,
) -> (usize, usize) {
    let t = match ctx.thread {
        Some(t) => t,
        None => return (0, 0),
    };
    let th = &mut threads[t];
    ctx.drain_stores(now);

    let mut issued = 0usize;
    let mut progress = 0usize;
    let mut meta = 0usize;
    while issued < width {
        // 1. Retry a store that was waiting for buffer space.
        if let Some(ps) = th.pending_store {
            if !ctx.store_space() {
                // lint:allow(panic): store_space() returned false, so the buffer is full and non-empty
                let (ready, class) = ctx.oldest_store().expect("full buffer has entries");
                ctx.block(ready, class, now);
                break;
            }
            let acc = mem.data_access(core, ps.addr >> 6, true, now);
            let class = data_stall_class(acc.class).unwrap_or(CycleClass::DStallL2Hit);
            if acc.ready_at > now {
                ctx.store_buf.push_back((acc.ready_at, class));
            }
            touch_trail_lines(mem, core, ps.addr, ps.size, true, now);
            th.pending_store = None;
            issued += 1;
            progress += 1;
            continue;
        }
        // 2. A pending fence waits for the store buffer to drain.
        if th.pending_fence {
            if let Some((ready, class)) = ctx.newest_store() {
                ctx.block(ready, class, now);
                break;
            }
            th.pending_fence = false;
            // Interconnect wait accrued by remote markers: charged after
            // the drain so the message is ordered behind prior work.
            if th.remote_wait > 0 {
                let wait = th.remote_wait;
                th.remote_wait = 0;
                ctl.remote.stall_cycles += wait;
                ctx.block(now + wait, CycleClass::Other, now);
                break;
            }
        }
        // 3. Continue the current exec run.
        if let Some((region, _)) = th.cur_exec {
            if let Some((ready, class)) = fetch_check(th, region, regions, mem, core, now) {
                ctx.block(ready, class, now);
                break;
            }
            issued += 1;
            progress += 1;
            if issue_exec(ctx, th, regions, now, pipeline_depth) {
                break;
            }
            continue;
        }
        // 4. Decode the next trace event.
        match th.cursor.next_event() {
            Some(Event::Load { addr, size, .. }) => {
                // Lead lines are state-only touches; the *last* line of the
                // access carries the timing (for sequential scans it is the
                // cold one — there is no hardware data prefetcher, per the
                // paper's configuration).
                touch_lead_lines(mem, core, addr, size, false, now);
                let acc = mem.data_access(core, (addr + size.max(1) as u64 - 1) >> 6, false, now);
                issued += 1;
                if let Some(class) = data_stall_class(acc.class) {
                    if acc.ready_at > now {
                        ctx.block(acc.ready_at, class, now);
                        break;
                    }
                }
                progress += 1;
            }
            Some(Event::Store { addr, size }) => {
                if !ctx.store_space() {
                    th.pending_store = Some(PendingStore { addr, size });
                    // lint:allow(panic): store_space() returned false, so the buffer is full and non-empty
                    let (ready, class) = ctx.oldest_store().expect("full buffer has entries");
                    ctx.block(ready, class, now);
                    break;
                }
                let acc = mem.data_access(core, addr >> 6, true, now);
                if acc.ready_at > now {
                    let class = data_stall_class(acc.class).unwrap_or(CycleClass::DStallL2Hit);
                    ctx.store_buf.push_back((acc.ready_at, class));
                }
                touch_trail_lines(mem, core, addr, size, true, now);
                issued += 1;
                progress += 1;
            }
            Some(ev) => {
                consume_meta_event(th, ctl, now, ev);
                meta += 1;
                if meta > MAX_META_EVENTS {
                    break;
                }
            }
            None => {
                finish_thread(th, ctl);
                break;
            }
        }
    }
    (issued, progress)
}

/// State-only touches for the lines of a multi-line access except the
/// last: they update cache/coherence state and bank occupancy but do not
/// add to this instruction's blocking latency (the engine's accesses are
/// line-sized in the common case; the final line carries the timing).
pub(crate) fn touch_lead_lines(
    mem: &mut MemSys,
    core: usize,
    addr: u64,
    size: u16,
    write: bool,
    now: u64,
) {
    let first = addr >> 6;
    let last = (addr + size.max(1) as u64 - 1) >> 6;
    let mut line = first;
    while line < last {
        mem.data_access(core, line, write, now);
        line += 1;
    }
}

/// State-only touches for the lines after the first (stores: the first
/// line carries the buffered timing).
pub(crate) fn touch_trail_lines(
    mem: &mut MemSys,
    core: usize,
    addr: u64,
    size: u16,
    write: bool,
    now: u64,
) {
    let first = addr >> 6;
    let last = (addr + size.max(1) as u64 - 1) >> 6;
    let mut line = first + 1;
    while line <= last {
        mem.data_access(core, line, write, now);
        line += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use dbcmp_trace::Tracer;

    fn setup(cfg: &MachineConfig) -> (MemSys, CodeRegions) {
        let mut regions = CodeRegions::new();
        regions.add("r0", 4096, 0.0);
        (MemSys::new(cfg), regions)
    }

    #[test]
    fn pure_compute_completes_and_counts() {
        let mut cfg = MachineConfig::lean_cmp(1, 1 << 20, 10);
        cfg.stream_buf = 0;
        let (mut mem, regions) = setup(&cfg);
        let mut tracer = Tracer::recording();
        tracer.exec(0, 100);
        let trace = tracer.finish();
        let mut threads = vec![ThreadState::new(&trace, &regions, false)];
        let mut core = LeanCore::new(&cfg, 4, 2);
        core.ctxs[0].thread = Some(0);
        let mut ctl = MachineCtl {
            remaining: 1,
            ..Default::default()
        };

        // First cycle: cold I-miss blocks.
        let c0 = core
            .cycle(0, 0, &mut mem, &mut threads, &regions, &mut ctl)
            .unwrap();
        assert!(matches!(c0, CycleClass::IStallMem | CycleClass::IStallL2));
        let mut now = 1;
        while !threads[0].done && now < 10_000 {
            core.cycle(0, now, &mut mem, &mut threads, &regions, &mut ctl);
            now += 1;
        }
        assert!(threads[0].done);
        assert_eq!(core.retired, 100);
    }

    #[test]
    fn data_miss_overlapped_by_other_context() {
        let mut cfg = MachineConfig::lean_cmp(1, 1 << 20, 10);
        cfg.stream_buf = 0;
        let (mut mem, regions) = setup(&cfg);
        // Thread 0: a single cold load (misses to memory).
        let mut t0 = Tracer::recording();
        t0.load(1 << 16, 8);
        let tr0 = t0.finish();
        // Thread 1: pure compute.
        let mut t1 = Tracer::recording();
        t1.exec(0, 50);
        let tr1 = t1.finish();
        let mut threads = vec![
            ThreadState::new(&tr0, &regions, false),
            ThreadState::new(&tr1, &regions, false),
        ];
        let mut core = LeanCore::new(&cfg, 4, 2);
        core.ctxs[0].thread = Some(0);
        core.ctxs[1].thread = Some(1);
        let mut ctl = MachineCtl {
            remaining: 2,
            ..Default::default()
        };

        let mut compute = 0u64;
        for now in 0..3000u64 {
            if let Some(CycleClass::Compute) =
                core.cycle(0, now, &mut mem, &mut threads, &regions, &mut ctl)
            {
                compute += 1;
            }
            if threads[0].done && threads[1].done {
                break;
            }
        }
        assert!(threads[0].done && threads[1].done);
        // Thread 1's 50 instructions must have overlapped the miss.
        assert!(compute >= 25, "compute={compute}");
    }

    #[test]
    fn all_blocked_charges_memory_stall() {
        let mut cfg = MachineConfig::lean_cmp(1, 1 << 20, 10);
        cfg.stream_buf = 0;
        let (mut mem, regions) = setup(&cfg);
        let mut t0 = Tracer::recording();
        t0.load(1 << 16, 8);
        let tr0 = t0.finish();
        let mut threads = vec![ThreadState::new(&tr0, &regions, false)];
        let mut core = LeanCore::new(&cfg, 4, 2);
        core.ctxs[0].thread = Some(0);
        let mut ctl = MachineCtl {
            remaining: 1,
            ..Default::default()
        };

        // Cycle 0 initiates the miss (charged as the stall class directly).
        let c0 = core
            .cycle(0, 0, &mut mem, &mut threads, &regions, &mut ctl)
            .unwrap();
        assert_eq!(c0, CycleClass::DStallMem);
        // Subsequent cycle: the only context is blocked.
        let c1 = core
            .cycle(0, 1, &mut mem, &mut threads, &regions, &mut ctl)
            .unwrap();
        assert_eq!(c1, CycleClass::DStallMem);
    }

    /// Three threads on two contexts (one queued) under a 150-cycle
    /// quantum, each alternating exec runs that cross several I-lines of
    /// a 1 KB and a 256 B region with loads and stores: spans run
    /// through line ends, redirects and round-robin turns. Pinned to the
    /// cycle counts, breakdowns and retired instructions of the
    /// per-cycle loop before spans (commit `80032c4`).
    #[test]
    fn spans_match_per_cycle_replay() {
        let expected = [
            (0.0, 7_514, [4_448, 14, 800, 0, 2_079, 0, 173], 8_895),
            (30.0, 8_349, [4_512, 9, 800, 0, 2_236, 0, 792], 8_895),
            (150.0, 11_302, [4_788, 9, 790, 0, 2_503, 0, 3_212], 8_895),
        ];
        for (mispred, cycles, breakdown, instrs) in expected {
            let mut cfg = MachineConfig::lean_cmp(1, 1 << 20, 10);
            cfg.quantum = 150;
            cfg.switch_penalty = 10;
            let mut regions = CodeRegions::new();
            let r = regions.add("hot", 1024, mispred);
            let s = regions.add("cold", 256, mispred / 3.0);
            let traces: Vec<_> = (0..3u64)
                .map(|t| {
                    let mut tr = Tracer::recording();
                    for k in 0..30u64 {
                        tr.exec(r, (40 + (k % 7) * 9 + t * 5) as u32);
                        tr.load(0x4_0000 + t * 0x1000 + (k % 4) * 64, 8);
                        tr.exec(s, 27);
                        if k % 3 == 0 {
                            tr.store(0x9_0000 + (k % 8) * 64, 8);
                        }
                    }
                    tr.finish()
                })
                .collect();
            let mut threads: Vec<_> = traces
                .iter()
                .map(|tr| ThreadState::new(tr, &regions, false))
                .collect();
            let mut mem = MemSys::new(&cfg);
            let mut core = LeanCore::new(&cfg, 2, 2);
            core.ctxs[0].thread = Some(0);
            core.ctxs[1].thread = Some(1);
            core.ctxs[0].run_q.push_back(2);
            let mut ctl = MachineCtl {
                remaining: 3,
                ..Default::default()
            };
            let (now, b) =
                crate::core::drive_alone(&mut core, &mut mem, &mut threads, &regions, &mut ctl);
            assert_eq!(
                (now, b.cycles, ctl.instrs),
                (cycles, breakdown, instrs),
                "mispred {mispred}"
            );
        }
    }

    #[test]
    fn inactive_core_reports_none() {
        let cfg = MachineConfig::lean_cmp(1, 1 << 20, 10);
        let (mut mem, regions) = setup(&cfg);
        let mut threads: Vec<ThreadState<'_>> = vec![];
        let mut core = LeanCore::new(&cfg, 4, 2);
        let mut ctl = MachineCtl::default();
        assert!(core
            .cycle(0, 0, &mut mem, &mut threads, &regions, &mut ctl)
            .is_none());
    }

    #[test]
    fn unit_end_records_latency() {
        let mut cfg = MachineConfig::lean_cmp(1, 1 << 20, 10);
        cfg.stream_buf = 0;
        let (mut mem, regions) = setup(&cfg);
        let mut t0 = Tracer::recording();
        t0.exec(0, 10);
        t0.unit_end();
        let tr0 = t0.finish();
        let mut threads = vec![ThreadState::new(&tr0, &regions, false)];
        let mut core = LeanCore::new(&cfg, 4, 2);
        core.ctxs[0].thread = Some(0);
        let mut ctl = MachineCtl {
            remaining: 1,
            ..Default::default()
        };
        let mut now = 0;
        while !threads[0].done && now < 10_000 {
            core.cycle(0, now, &mut mem, &mut threads, &regions, &mut ctl);
            now += 1;
        }
        assert_eq!(ctl.units, 1);
        assert!(
            ctl.unit_cycles > 0,
            "unit must take time (cold miss at least)"
        );
    }

    #[test]
    fn quantum_rotates_threads() {
        let mut cfg = MachineConfig::lean_cmp(1, 1 << 20, 10);
        cfg.stream_buf = 0;
        cfg.quantum = 20;
        cfg.switch_penalty = 5;
        let (mut mem, regions) = setup(&cfg);
        let mut t0 = Tracer::recording();
        t0.exec(0, 1000);
        let tr0 = t0.finish();
        let mut t1 = Tracer::recording();
        t1.exec(0, 1000);
        let tr1 = t1.finish();
        let mut threads = vec![
            ThreadState::new(&tr0, &regions, false),
            ThreadState::new(&tr1, &regions, false),
        ];
        // Both threads on ONE context: they must time-slice.
        let mut core = LeanCore::new(&cfg, 1, 2);
        core.ctxs[0].thread = Some(0);
        core.ctxs[0].run_q.push_back(1);
        let mut ctl = MachineCtl {
            remaining: 2,
            ..Default::default()
        };
        let mut now = 0;
        while (!threads[0].done || !threads[1].done) && now < 100_000 {
            core.cycle(0, now, &mut mem, &mut threads, &regions, &mut ctl);
            now += 1;
        }
        assert!(
            threads[0].done && threads[1].done,
            "both threads must finish via rotation"
        );
        assert_eq!(core.retired, 2000);
    }
}
