//! Fat-camp core: wide-issue out-of-order with a reorder-buffer window.
//!
//! The model is deliberately simple but captures the two properties the
//! paper's analysis rests on:
//!
//! * **Memory-level parallelism for independent loads.** Loads are issued
//!   to the memory system at decode; up to `mshrs` can be outstanding.
//!   Retirement is in order, so a long-latency load at the head of the
//!   window hides the latency of the younger loads behind it — the reason
//!   DSS scans run well on fat cores.
//! * **Dependence-limited overlap.** A load marked `dep` (pointer chase)
//!   gates *decode* until its data returns: nothing younger can even enter
//!   the window. B+Tree descents and hash-chain walks therefore serialize,
//!   which is the microarchitectural face of OLTP's "tight data
//!   dependencies" (paper §1, §4).
//!
//! Stall attribution is retirement-based: a cycle in which no instruction
//! retires is charged to whatever blocks the head of the window (or the
//! fetch/decode gate when the window is empty).

use std::collections::VecDeque;

use dbcmp_trace::region::CodeRegions;
use dbcmp_trace::Event;

use crate::config::{CoreKind, MachineConfig};
use crate::core::Core;
use crate::ctx::{
    consume_meta_event, data_stall_class, fetch_check, finish_thread, CtxBase, MAX_META_EVENTS,
};
use crate::cursor::{PendingLoad, PendingStore, ThreadState};
use crate::machine::MachineCtl;
use crate::memsys::MemSys;
use crate::stats::CycleClass;

/// One window entry: either a run of already-complete ALU work or an
/// in-flight load.
#[derive(Debug)]
enum RobSlot {
    Run { left: u32 },
    Load { ready_at: u64, class: CycleClass },
}

#[derive(Debug)]
pub struct FatCore {
    pub base: CtxBase,
    rob: VecDeque<RobSlot>,
    /// Instructions currently in the window.
    rob_instrs: usize,
    rob_cap: usize,
    width: usize,
    /// Sustainable ALU retirement per cycle. Database code has tight
    /// dependency chains, so a 4-wide core sustains roughly half its peak
    /// on integer work (paper §1: "tight data dependencies that reduce
    /// instruction-level parallelism"). Loads still dispatch at full
    /// width (MLP is dependence-marked separately).
    alu_width: usize,
    mshrs: usize,
    outstanding: usize,
    pipeline_depth: u64,
    quantum: u64,
    switch_penalty: u64,
    /// Decode halted until (cycle, class): dependent load, misprediction
    /// redirect, or context-switch drain.
    gate_until: u64,
    gate_class: CycleClass,
    /// Instruction fetch blocked until (cycle, class).
    fetch_until: u64,
    fetch_class: CycleClass,
    /// A quantum expiry requested a thread switch; performed once the
    /// window drains.
    want_switch: bool,
    pub retired: u64,
}

impl FatCore {
    pub fn new(cfg: &MachineConfig, width: usize, rob: usize, mshrs: usize) -> Self {
        FatCore {
            base: CtxBase::new(cfg.store_buffer, cfg.quantum),
            rob: VecDeque::with_capacity(rob),
            rob_instrs: 0,
            rob_cap: rob.max(8),
            width: width.max(1),
            alu_width: width.div_ceil(2).max(1),
            mshrs: mshrs.max(1),
            outstanding: 0,
            // The slot's own depth, not the machine default's: on a
            // heterogeneous machine cfg.core may describe another camp.
            pipeline_depth: CoreKind::Fat { width, rob, mshrs }.pipeline_depth(),
            quantum: cfg.quantum,
            switch_penalty: cfg.switch_penalty,
            gate_until: 0,
            gate_class: CycleClass::Other,
            fetch_until: 0,
            fetch_class: CycleClass::IStallL2,
            want_switch: false,
            retired: 0,
        }
    }
}

/// One quiet cycle of a span: a cycle that calls no memory system and
/// reads no trace. Planned before it is applied, so a cycle that is not
/// quiet, or charges another class, is left for the machine to run.
#[derive(Debug, Clone, Copy)]
struct Quiet {
    /// Instructions retired, and how many of them are loads.
    retire: usize,
    loads: usize,
    /// Instructions decoded from the exec run `(region, left)` inside
    /// the fetched I-line (0: decode does nothing this cycle).
    decode: u64,
    region: u16,
    left: u32,
    /// Instructions left in the fetched I-line.
    in_line: u64,
    class: CycleClass,
}

impl Core for FatCore {
    fn contexts(&self) -> &[CtxBase] {
        std::slice::from_ref(&self.base)
    }

    fn contexts_mut(&mut self) -> &mut [CtxBase] {
        std::slice::from_mut(&mut self.base)
    }

    fn retired_mut(&mut self) -> &mut u64 {
        &mut self.retired
    }

    /// Simulate one cycle; `None` means the core has no work at all.
    fn cycle(
        &mut self,
        core: usize,
        now: u64,
        mem: &mut MemSys,
        threads: &mut [ThreadState<'_>],
        regions: &CodeRegions,
        ctl: &mut MachineCtl,
    ) -> Option<CycleClass> {
        // Thread scheduling.
        if let Some(t) = self.base.thread {
            if threads[t].done && self.rob.is_empty() {
                self.base
                    .rotate_thread(false, self.quantum, self.switch_penalty, now);
            }
        } else if !self.base.run_q.is_empty() {
            self.base.rotate_thread(false, self.quantum, 0, now);
        }
        if self.base.thread.is_none() && self.rob.is_empty() {
            return None;
        }

        self.base.drain_stores(now);
        let (retired, loads) = self.retire_plan(now);
        self.retire(retired, loads, ctl);

        let mut head_wait: Option<CycleClass> = None;
        if let Some(t) = self.base.thread {
            if !threads[t].done {
                head_wait = self.decode(core, t, now, mem, threads, regions, ctl);
            }
        }
        self.os_tick(now);

        // ---- Attribution ----
        if retired > 0 {
            return Some(CycleClass::Compute);
        }
        // Nothing retired: why?
        if let Some(RobSlot::Load { class, .. }) = self.rob.front() {
            return Some(*class);
        }
        // Window empty: fetch / decode-gate / store-drain / fence.
        if self.fetch_until > now {
            return Some(self.fetch_class);
        }
        if self.gate_until > now {
            return Some(self.gate_class);
        }
        if let Some(cls) = head_wait {
            return Some(cls);
        }
        if let Some((_, class)) = self.base.oldest_store() {
            return Some(class);
        }
        Some(CycleClass::Other)
    }

    /// Runs idle stretches (`idle`) in one step each and quiet cycles
    /// (`quiet`) through the same retire, decode and quantum code as
    /// `cycle`, cycles that repeat a plan (`repeats`) in one step, while
    /// the class stays the same. A finished thread's window may still
    /// drain, but only idle stretches run for it here.
    fn span(
        &mut self,
        now: u64,
        end: u64,
        threads: &mut [ThreadState<'_>],
        regions: &CodeRegions,
        ctl: &mut MachineCtl,
    ) -> Option<(u64, CycleClass)> {
        // An unbound slot with work in its window is transient: let it run.
        let th = &mut threads[self.base.thread?];
        if th.done && self.rob.is_empty() {
            return None; // the finished thread rotates out
        }
        let mut at = now + 1;
        let mut charged: Option<CycleClass> = None;
        while at < end {
            // An idle stretch retires nothing, so it cannot extend a
            // Compute span.
            if let Some((wake, class)) = (charged != Some(CycleClass::Compute))
                .then(|| self.idle(at, th))
                .flatten()
            {
                if charged.is_some_and(|s| s != class) {
                    break;
                }
                let wake = wake.min(end);
                self.base.quantum_left = self.base.quantum_left.saturating_sub(wake - at);
                charged = Some(class);
                at = wake;
                continue;
            }
            if th.done {
                break;
            }
            let Some(q) = self.quiet(at, th, regions) else {
                break;
            };
            if charged.is_some_and(|s| s != q.class) {
                break;
            }
            // Cycles that repeat the plan are applied together. Decode
            // goes first: it accrues mispredictions per instruction, and
            // a redirect ends the repeat in the cycle that decoded its
            // instruction. Retirement only takes instructions that were
            // in the window before, so the order does not change it.
            let mut cycles = self.repeats(at, end, &q);
            if q.decode > 0 {
                let room = q.decode * cycles;
                let (n, redirect) = self.decode_line(th, q.region, q.left, room, regions);
                if redirect {
                    cycles = (n - 1) / q.decode + 1;
                    self.redirect(at + cycles - 1);
                }
            }
            self.retire(q.retire * cycles as usize, q.loads, ctl);
            for c in at..at + cycles {
                self.os_tick(c);
            }
            charged = Some(q.class);
            at += cycles;
        }
        charged.map(|class| (at, class))
    }
}

impl FatCore {
    /// What the retire stage takes at `now`, in order: ALU runs limited
    /// by dependency chains, loads by readiness. Returns the instructions
    /// retired and how many of them are loads.
    fn retire_plan(&self, now: u64) -> (usize, usize) {
        // The common case: a head run longer than the ALU width.
        if let Some(&RobSlot::Run { left }) = self.rob.front() {
            if left as usize > self.alu_width {
                return (self.alu_width, 0);
            }
        }
        let (mut n, mut loads) = (0usize, 0usize);
        for slot in &self.rob {
            if n >= self.width {
                break;
            }
            match *slot {
                RobSlot::Run { left } => {
                    let take = (left as usize).min(self.alu_width.saturating_sub(n));
                    n += take;
                    if take < left as usize {
                        break; // the ALU width is used up
                    }
                }
                RobSlot::Load { ready_at, .. } if ready_at <= now => {
                    n += 1;
                    loads += 1;
                }
                RobSlot::Load { .. } => break,
            }
        }
        (n, loads)
    }

    /// Retire the `n` oldest instructions, `loads` of them loads (a plan
    /// from [`retire_plan`](Self::retire_plan)), and count them.
    fn retire(&mut self, n: usize, loads: usize, ctl: &mut MachineCtl) {
        let mut left_to_take = n;
        while left_to_take > 0 {
            match self.rob.front_mut() {
                Some(RobSlot::Run { left }) => {
                    let take = (*left as usize).min(left_to_take);
                    *left -= take as u32;
                    left_to_take -= take;
                    if *left == 0 {
                        self.rob.pop_front();
                    }
                }
                Some(RobSlot::Load { .. }) => {
                    self.rob.pop_front();
                    left_to_take -= 1;
                }
                None => break,
            }
        }
        self.rob_instrs -= n;
        self.outstanding -= loads;
        self.retired += n as u64;
        ctl.instrs += n as u64;
    }

    /// Decode cannot act at `now`: a switch is pending or the decode or
    /// fetch gate is closed.
    #[inline]
    fn decode_gated(&self, now: u64) -> bool {
        self.want_switch || self.gate_until > now || self.fetch_until > now
    }

    /// The class to blame when a held load (no free MSHR), store (no
    /// store-buffer space) or fence (window or store buffer not drained)
    /// stops decode, given the outstanding loads and whether the window
    /// is empty. `None` when nothing is held or the held item can go.
    fn held_back(
        &self,
        th: &ThreadState<'_>,
        outstanding: usize,
        rob_empty: bool,
    ) -> Option<CycleClass> {
        let oldest = || self.base.oldest_store().map(|(_, c)| c);
        if th.pending_load.is_some() {
            (outstanding >= self.mshrs).then_some(CycleClass::DStallMem)
        } else if th.pending_store.is_some() {
            if self.base.store_space() {
                None
            } else {
                oldest()
            }
        } else if th.pending_fence && !(rob_empty && self.base.store_buf.is_empty()) {
            Some(oldest().unwrap_or(CycleClass::Other))
        } else {
            None
        }
    }

    /// Idle from `next`: the window head is an unready load (or the
    /// window is empty) and decode cannot act. Every condition holds
    /// until one of the wake-up candidates: the head load's return, the
    /// oldest store's drain, the fetch and decode gates, and the quantum
    /// expiry that requests a switch. Returns `(wake, class)` with
    /// `wake > next`; the stretch's only bookkeeping is `quantum_left`.
    fn idle(&self, next: u64, th: &ThreadState<'_>) -> Option<(u64, CycleClass)> {
        let mut wake = u64::MAX;
        let head = match self.rob.front() {
            Some(RobSlot::Run { .. }) => return None,
            Some(&RobSlot::Load { ready_at, class }) => {
                if ready_at <= next {
                    return None;
                }
                wake = ready_at;
                Some(class)
            }
            None => None,
        };
        let oldest_store = self.base.oldest_store();
        if let Some((ready, _)) = oldest_store {
            wake = wake.min(ready);
        }
        for until in [self.fetch_until, self.gate_until] {
            if until >= next {
                wake = wake.min(until);
            }
        }
        // Decode must be unable to act; what blocks it is its blame.
        let blame = if th.done || self.decode_gated(next) || self.rob_instrs >= self.rob_cap {
            None
        } else {
            Some(self.held_back(th, self.outstanding, self.rob.is_empty())?)
        };
        if self.want_switch {
            if self.rob.is_empty() && oldest_store.is_none() {
                return None; // the pending switch fires
            }
        } else if !self.base.run_q.is_empty() {
            wake = wake.min(next + self.base.quantum_left);
        }
        if wake <= next {
            return None;
        }
        let class = head
            .or((self.fetch_until > next).then_some(self.fetch_class))
            .or((self.gate_until > next).then_some(self.gate_class))
            .or(blame)
            .or(oldest_store.map(|(_, c)| c))
            .unwrap_or(CycleClass::Other);
        Some((wake, class))
    }

    /// Plan cycle `at` for thread `th` if it is quiet: it retires
    /// something or its window head is an unready load (so the class is
    /// known before decode runs), and decode is either stopped (as for a
    /// finished thread, whose decode never runs) or takes the next
    /// `min(width, room)` instructions of the exec run from the fetched
    /// I-line without reaching the line's or the run's end (a redirect
    /// may stop it sooner). A quantum switch must not fire at the
    /// cycle's end. The store buffer is drained to `at` first, as
    /// `cycle(at)` would do; draining again at `at` changes nothing.
    fn quiet(&mut self, at: u64, th: &ThreadState<'_>, regions: &CodeRegions) -> Option<Quiet> {
        self.base.drain_stores(at);
        let (retire, loads) = self.retire_plan(at);
        let class = match self.rob.front() {
            _ if retire > 0 => CycleClass::Compute,
            Some(&RobSlot::Load { class, .. }) => class,
            _ => return None,
        };
        let in_rob = self.rob_instrs - retire;
        let room = self.rob_cap - in_rob;
        let (mut decode, mut region, mut left, mut in_line) = (0, 0, 0, 0);
        if !(th.done
            || self.decode_gated(at)
            || room == 0
            || self
                .held_back(th, self.outstanding - loads, in_rob == 0)
                .is_some())
        {
            if th.pending_load.is_some() || th.pending_store.is_some() || th.pending_fence {
                return None; // the held load, store or fence goes ahead
            }
            (region, left) = th.cur_exec?;
            in_line = th.fetched_line_left(region, regions)?;
            decode = self.width.min(room) as u64;
            if decode > in_line.min(left as u64) {
                return None; // decode would fetch a new line or read the trace
            }
        }
        let want_switch =
            self.want_switch || (self.base.quantum_left == 0 && !self.base.run_q.is_empty());
        if want_switch && in_rob as u64 + decode == 0 && self.base.store_buf.is_empty() {
            return None; // the switch fires
        }
        Some(Quiet {
            retire,
            loads,
            decode,
            region,
            left,
            in_line,
            class,
        })
    }

    /// How many cycles from `at`, this one included, carry out the
    /// quiet plan `q` unchanged: each retires the ALU width from a head
    /// run that outlasts them, and decode either stays closed (a pending
    /// switch, or the decode or fetch gate) or takes the same count from
    /// the fetched line every cycle. A quantum expiry that would close
    /// decode ends the repeat. Anything else makes it one cycle.
    fn repeats(&self, at: u64, end: u64, q: &Quiet) -> u64 {
        let alu = self.alu_width as u64;
        let Some(&RobSlot::Run { left: head }) = self.rob.front() else {
            return 1;
        };
        if q.loads > 0 || q.retire != self.alu_width {
            return 1;
        }
        let head = head as u64;
        let k = q.decode;
        let mut cycles = end - at;
        if k == 0 {
            let open = if self.want_switch {
                u64::MAX
            } else {
                self.gate_until.max(self.fetch_until)
            };
            if open <= at {
                return 1; // decode waits on something else
            }
            // The head run shrinks by the ALU width each cycle.
            return cycles.min(open - at).min((head - 1) / alu).max(1);
        }
        // The window gains `k - alu` a cycle: decode must find room for
        // `k` every cycle, and with other slots in the window the head
        // run shrinks by the ALU width.
        let occupied = self.rob_instrs as u64;
        let (cap, width) = (self.rob_cap as u64, self.width as u64);
        if k == width && k > alu {
            cycles = cycles.min((cap + alu - width - occupied) / (k - alu) + 1);
        } else if k != alu {
            return 1;
        }
        if self.rob.len() > 1 {
            cycles = cycles.min((head - 1) / alu);
        }
        if !self.base.run_q.is_empty() {
            cycles = cycles.min(self.base.quantum_left + 1);
        }
        cycles.min(q.in_line.min(q.left as u64) / k).max(1)
    }

    /// A misprediction detected in cycle `at` closes decode for the
    /// pipeline depth.
    fn redirect(&mut self, at: u64) {
        self.gate_until = at + self.pipeline_depth;
        self.gate_class = CycleClass::Other;
    }

    /// OS quantum bookkeeping at the end of a cycle: request a switch
    /// once the quantum is spent and threads wait, and perform it once
    /// the window and the store buffer have drained.
    fn os_tick(&mut self, now: u64) {
        if self.base.thread.is_some() {
            if self.base.quantum_left == 0 && !self.base.run_q.is_empty() {
                self.want_switch = true;
            } else {
                self.base.quantum_left = self.base.quantum_left.saturating_sub(1);
            }
        }
        if self.want_switch && self.rob.is_empty() && self.base.store_buf.is_empty() {
            self.want_switch = false;
            self.base
                .rotate_thread(true, self.quantum, self.switch_penalty, now);
            self.gate_until = self.gate_until.max(now + self.switch_penalty);
            self.gate_class = CycleClass::Other;
        }
    }

    /// Fill the window with up to `width` new instructions. Returns the
    /// stall class to blame if decode could not make progress for a
    /// memory-ish reason (used only when nothing retired either).
    #[allow(clippy::too_many_arguments)]
    fn decode(
        &mut self,
        core: usize,
        t: usize,
        now: u64,
        mem: &mut MemSys,
        threads: &mut [ThreadState<'_>],
        regions: &CodeRegions,
        ctl: &mut MachineCtl,
    ) -> Option<CycleClass> {
        if self.decode_gated(now) {
            return None;
        }
        let th = &mut threads[t];
        let mut decoded = 0usize;
        let mut meta = 0usize;
        let mut blame = None;
        while decoded < self.width && self.rob_instrs < self.rob_cap {
            if let Some(class) = self.held_back(th, self.outstanding, self.rob.is_empty()) {
                blame = Some(class);
                break;
            }
            // Held load retry (an MSHR is free).
            if let Some(pl) = th.pending_load.take() {
                self.issue_load(core, now, pl, mem);
                decoded += 1;
                if pl.dep && self.gate_until > now {
                    break;
                }
                continue;
            }
            // Held store retry (the store buffer has space).
            if let Some(ps) = th.pending_store.take() {
                let acc = mem.data_access(core, ps.addr >> 6, true, now);
                if acc.ready_at > now {
                    let class = data_stall_class(acc.class).unwrap_or(CycleClass::DStallL2Hit);
                    self.base.store_buf.push_back((acc.ready_at, class));
                }
                crate::lean::touch_trail_lines(mem, core, ps.addr, ps.size, true, now);
                self.push_run(1);
                decoded += 1;
                continue;
            }
            // Pending fence: the window and store buffer have drained.
            if th.pending_fence {
                th.pending_fence = false;
                // Interconnect wait accrued by remote markers: charged here,
                // after the drain, so the message is ordered behind the work
                // that produced it.
                if th.remote_wait > 0 {
                    let wait = th.remote_wait;
                    th.remote_wait = 0;
                    ctl.remote.stall_cycles += wait;
                    self.gate_until = self.gate_until.max(now + wait);
                    self.gate_class = CycleClass::Other;
                    break;
                }
            }
            // Current exec run: fetch, then decode as much of the fetched
            // I-line as width and window allow.
            if let Some((region, left)) = th.cur_exec {
                if let Some((ready, class)) = fetch_check(th, region, regions, mem, core, now) {
                    self.fetch_until = ready;
                    self.fetch_class = class;
                    break;
                }
                let room = (self.width - decoded).min(self.rob_cap - self.rob_instrs) as u64;
                let (n, redirect) = self.decode_line(th, region, left, room, regions);
                decoded += n as usize;
                if redirect {
                    self.redirect(now);
                    break;
                }
                continue;
            }
            match th.cursor.next_event() {
                Some(Event::Load { addr, size, dep }) => {
                    let pl = PendingLoad { addr, size, dep };
                    if self.outstanding >= self.mshrs {
                        // MSHRs exhausted; hold the load and resume next
                        // cycle.
                        th.pending_load = Some(pl);
                        blame = Some(CycleClass::DStallMem);
                        break;
                    }
                    self.issue_load(core, now, pl, mem);
                    decoded += 1;
                    if dep && self.gate_until > now {
                        break;
                    }
                }
                Some(Event::Store { addr, size }) => {
                    if !self.base.store_space() {
                        th.pending_store = Some(PendingStore { addr, size });
                        blame = self.base.oldest_store().map(|(_, c)| c);
                        break;
                    }
                    let acc = mem.data_access(core, addr >> 6, true, now);
                    if acc.ready_at > now {
                        let class = data_stall_class(acc.class).unwrap_or(CycleClass::DStallL2Hit);
                        self.base.store_buf.push_back((acc.ready_at, class));
                    }
                    crate::lean::touch_trail_lines(mem, core, addr, size, true, now);
                    self.push_run(1);
                    decoded += 1;
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
        blame
    }

    /// Decode up to `room` instructions of the exec run `(region, left)`
    /// from the fetched I-line: the line's later instructions need no
    /// fetch check, so one step takes them all. Mispredictions accrue
    /// per instruction; a redirect ends the step at the instruction that
    /// caused it (the caller closes decode). Returns the count decoded
    /// and whether a redirect happened.
    fn decode_line(
        &mut self,
        th: &mut ThreadState<'_>,
        region: u16,
        left: u32,
        room: u64,
        regions: &CodeRegions,
    ) -> (u64, bool) {
        let batch = th
            .line_instrs_left(region, regions)
            .min(left as u64)
            .min(room);
        let rate = regions.get(region).mispred_per_instr();
        let mut n = 0;
        let mut redirect = false;
        while n < batch {
            n += 1;
            th.mispred_acc += rate;
            if th.mispred_acc >= 1.0 {
                th.mispred_acc -= 1.0;
                redirect = true;
                break;
            }
        }
        th.advance_instrs(region, regions, n);
        th.cur_exec = (left as u64 > n).then(|| (region, left - n as u32));
        self.push_run(n as u32);
        (n, redirect)
    }

    /// Issue a load to the memory system and place it in the window.
    fn issue_load(&mut self, core: usize, now: u64, pl: PendingLoad, mem: &mut MemSys) {
        crate::lean::touch_lead_lines(mem, core, pl.addr, pl.size, false, now);
        let acc = mem.data_access(core, (pl.addr + pl.size.max(1) as u64 - 1) >> 6, false, now);
        match data_stall_class(acc.class) {
            Some(class) if acc.ready_at > now => {
                self.rob.push_back(RobSlot::Load {
                    ready_at: acc.ready_at,
                    class,
                });
                self.rob_instrs += 1;
                self.outstanding += 1;
                if pl.dep {
                    self.gate_until = acc.ready_at;
                    self.gate_class = class;
                }
            }
            _ => self.push_run(1),
        }
    }

    /// Append ALU work to the window, merging with a trailing run.
    #[inline]
    fn push_run(&mut self, n: u32) {
        if let Some(RobSlot::Run { left }) = self.rob.back_mut() {
            *left += n;
        } else {
            self.rob.push_back(RobSlot::Run { left: n });
        }
        self.rob_instrs += n as usize;
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

    fn run_to_completion(
        core: &mut FatCore,
        mem: &mut MemSys,
        threads: &mut [ThreadState<'_>],
        regions: &CodeRegions,
        ctl: &mut MachineCtl,
        max: u64,
    ) -> (u64, u64) {
        // Returns (cycles, compute_cycles).
        let mut compute = 0;
        let mut now = 0;
        while now < max {
            match core.cycle(0, now, mem, threads, regions, ctl) {
                Some(CycleClass::Compute) => compute += 1,
                Some(_) => {}
                None => break,
            }
            now += 1;
            if threads.iter().all(|t| t.done) && core.rob.is_empty() {
                break;
            }
        }
        (now, compute)
    }

    #[test]
    fn wide_issue_retires_width_per_cycle_when_warm() {
        // Stream buffers stay enabled: without them every cold I-line costs
        // a full memory round trip and fetch dominates.
        let cfg = MachineConfig::fat_cmp(1, 1 << 20, 10);
        let (mut mem, regions) = setup(&cfg);
        // Two passes through the 4 KB region: the first streams cold code
        // from memory (~100 cycles/line with prefetch depth 4); the second
        // hits the L1I and runs essentially at full width.
        let mut t = Tracer::recording();
        t.exec(0, 2048);
        let tr = t.finish();
        let mut threads = vec![ThreadState::new(&tr, &regions, false)];
        let mut core = FatCore::new(&cfg, 4, 128, 8);
        core.base.thread = Some(0);
        let mut ctl = MachineCtl {
            remaining: 1,
            ..Default::default()
        };
        let (cycles, compute) = run_to_completion(
            &mut core,
            &mut mem,
            &mut threads,
            &regions,
            &mut ctl,
            100_000,
        );
        assert_eq!(core.retired, 2048);
        // 2048 instrs at width 4 = 512 compute cycles minimum.
        assert!(compute >= 512, "compute={compute}");
        // Warm pass must not repeat the ~6.5k-cycle cold-fetch cost.
        assert!(cycles < 8000, "cycles={cycles}");
    }

    #[test]
    fn independent_loads_overlap_dependent_loads_serialize() {
        let mut cfg = MachineConfig::fat_cmp(1, 1 << 20, 10);
        cfg.stream_buf = 0;
        let (mut mem, regions) = setup(&cfg);

        // 8 independent loads to distinct cold lines.
        let mut ti = Tracer::recording();
        for k in 0..8u64 {
            ti.load((1 << 16) + k * 4096, 8);
        }
        let tri = ti.finish();
        // 8 dependent loads to distinct cold lines.
        let mut td = Tracer::recording();
        for k in 0..8u64 {
            td.load_dep((1 << 20) + k * 4096, 8);
        }
        let trd = td.finish();

        let mut threads = vec![ThreadState::new(&tri, &regions, false)];
        let mut core = FatCore::new(&cfg, 4, 128, 8);
        core.base.thread = Some(0);
        let mut ctl = MachineCtl {
            remaining: 1,
            ..Default::default()
        };
        let (cyc_indep, _) = run_to_completion(
            &mut core,
            &mut mem,
            &mut threads,
            &regions,
            &mut ctl,
            100_000,
        );

        let mut mem2 = MemSys::new(&cfg);
        let mut threads2 = vec![ThreadState::new(&trd, &regions, false)];
        let mut core2 = FatCore::new(&cfg, 4, 128, 8);
        core2.base.thread = Some(0);
        let mut ctl2 = MachineCtl {
            remaining: 1,
            ..Default::default()
        };
        let (cyc_dep, _) = run_to_completion(
            &mut core2,
            &mut mem2,
            &mut threads2,
            &regions,
            &mut ctl2,
            100_000,
        );

        // Dependent chain ≈ 8 × mem_latency; independent ≈ 1 × mem_latency
        // (+ epsilon). Require at least 4x separation.
        assert!(
            cyc_dep > 4 * cyc_indep,
            "dep={cyc_dep} indep={cyc_indep}: OoO must overlap independent misses"
        );
    }

    #[test]
    fn stall_cycles_charged_to_head_class() {
        let mut cfg = MachineConfig::fat_cmp(1, 1 << 20, 10);
        cfg.stream_buf = 0;
        let (mut mem, regions) = setup(&cfg);
        let mut t = Tracer::recording();
        t.load(1 << 16, 8); // cold -> memory
        let tr = t.finish();
        let mut threads = vec![ThreadState::new(&tr, &regions, false)];
        let mut core = FatCore::new(&cfg, 4, 128, 8);
        core.base.thread = Some(0);
        let mut ctl = MachineCtl {
            remaining: 1,
            ..Default::default()
        };
        // Cycle 0: decode issues the load; nothing retires -> DStallMem.
        let c0 = core
            .cycle(0, 0, &mut mem, &mut threads, &regions, &mut ctl)
            .unwrap();
        assert_eq!(c0, CycleClass::DStallMem);
        let c1 = core
            .cycle(0, 1, &mut mem, &mut threads, &regions, &mut ctl)
            .unwrap();
        assert_eq!(c1, CycleClass::DStallMem);
    }

    #[test]
    fn mshr_limit_caps_overlap() {
        let mut cfg = MachineConfig::fat_cmp(1, 1 << 20, 10);
        cfg.stream_buf = 0;
        let (mut mem, regions) = setup(&cfg);
        // 16 independent cold loads, but only 2 MSHRs.
        let mut t = Tracer::recording();
        for k in 0..16u64 {
            t.load((1 << 16) + k * 4096, 8);
        }
        let tr = t.finish();
        let mut threads = vec![ThreadState::new(&tr, &regions, false)];
        let mut core = FatCore::new(&cfg, 4, 128, 2);
        core.base.thread = Some(0);
        let mut ctl = MachineCtl {
            remaining: 1,
            ..Default::default()
        };
        let (cyc_2mshr, _) = run_to_completion(
            &mut core,
            &mut mem,
            &mut threads,
            &regions,
            &mut ctl,
            100_000,
        );
        // With 2 MSHRs, 16 misses need ≥ 8 serialized memory rounds.
        assert!(cyc_2mshr >= 8 * 400, "cyc={cyc_2mshr}");
    }

    #[test]
    fn fence_drains_window() {
        let mut cfg = MachineConfig::fat_cmp(1, 1 << 20, 10);
        cfg.stream_buf = 0;
        let (mut mem, regions) = setup(&cfg);
        let mut t = Tracer::recording();
        t.load(1 << 16, 8);
        t.fence();
        t.exec(0, 4);
        let tr = t.finish();
        let mut threads = vec![ThreadState::new(&tr, &regions, false)];
        let mut core = FatCore::new(&cfg, 4, 128, 8);
        core.base.thread = Some(0);
        let mut ctl = MachineCtl {
            remaining: 1,
            ..Default::default()
        };
        let (cycles, _) = run_to_completion(
            &mut core,
            &mut mem,
            &mut threads,
            &regions,
            &mut ctl,
            100_000,
        );
        // The exec after the fence cannot overlap the miss: total ≥ mem
        // latency + some compute.
        assert!(cycles > 400, "cycles={cycles}");
        assert_eq!(core.retired, 5);
        assert!(threads[0].done);
    }

    /// Decode takes the rest of a fetched I-line in one step. Pinned to
    /// the cycle counts and breakdowns of the per-instruction decoder
    /// (commit `faa943c`): runs that cross lines and wrap small regions,
    /// mispredictions (up to 300 per 1000 instructions), and windows
    /// small enough that the ROB, not the width, ends a step.
    #[test]
    fn line_batched_decode_matches_per_instruction_decode() {
        use crate::stats::Breakdown;
        let expected = [
            (0.0, 128, 9_456, [1_688, 0, 411, 0, 7_355, 0, 2]),
            (40.0, 128, 9_770, [1_690, 0, 411, 0, 7_645, 0, 24]),
            (40.0, 8, 19_435, [1_729, 0, 411, 0, 16_270, 0, 1_025]),
            (300.0, 16, 27_532, [1_941, 3, 411, 0, 16_350, 0, 8_827]),
        ];
        for (mispred, rob, cycles, breakdown) in expected {
            let cfg = MachineConfig::fat_cmp(1, 1 << 20, 10);
            let mut regions = CodeRegions::new();
            let r = regions.add("hot", 256, mispred);
            let s = regions.add("cold", 64, mispred / 2.0);
            let mut mem = MemSys::new(&cfg);
            let mut t = Tracer::recording();
            for k in 0..40u64 {
                t.exec(r, 37 + (k as u32 % 5) * 11);
                t.load(0x4_0000 + k * 64, 8);
                t.exec(s, 23);
                t.store(0x9_0000 + (k % 8) * 64, 8);
            }
            let tr = t.finish();
            let mut threads = vec![ThreadState::new(&tr, &regions, false)];
            let mut core = FatCore::new(&cfg, 4, rob, 8);
            core.base.thread = Some(0);
            let mut ctl = MachineCtl {
                remaining: 1,
                ..Default::default()
            };
            let mut b = Breakdown::default();
            let mut now = 0;
            while let Some(class) = core.cycle(0, now, &mut mem, &mut threads, &regions, &mut ctl) {
                b.charge(class, 1);
                now += 1;
            }
            assert_eq!((now, b.cycles), (cycles, breakdown), "{mispred} {rob}");
        }
    }

    /// Two threads time-sliced on one context under a 150-cycle quantum,
    /// each alternating exec runs that cross several I-lines of a 1 KB
    /// and a 256 B region with loads and stores: spans run through line
    /// ends, redirects and quantum expiries. Pinned to the cycle counts,
    /// breakdowns and retired instructions of the per-cycle loop before
    /// spans (commit `80032c4`).
    #[test]
    fn spans_match_per_cycle_replay() {
        let expected = [
            (0.0, 7_230, [2_892, 0, 411, 0, 3_750, 0, 177], 5_780),
            (30.0, 8_233, [2_933, 0, 411, 0, 4_246, 0, 643], 5_780),
            (150.0, 16_270, [3_104, 3, 411, 0, 5_271, 0, 7_481], 5_780),
        ];
        for (mispred, cycles, breakdown, instrs) in expected {
            let mut cfg = MachineConfig::fat_cmp(1, 1 << 20, 10);
            cfg.quantum = 150;
            cfg.switch_penalty = 10;
            let mut regions = CodeRegions::new();
            let r = regions.add("hot", 1024, mispred);
            let s = regions.add("cold", 256, mispred / 3.0);
            let traces: Vec<_> = (0..2u64)
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
            let mut core = FatCore::new(&cfg, 4, 128, 8);
            core.base.thread = Some(0);
            core.base.run_q.push_back(1);
            let mut ctl = MachineCtl {
                remaining: 2,
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
        let cfg = MachineConfig::fat_cmp(1, 1 << 20, 10);
        let (mut mem, regions) = setup(&cfg);
        let mut threads: Vec<ThreadState<'_>> = vec![];
        let mut core = FatCore::new(&cfg, 4, 128, 8);
        let mut ctl = MachineCtl::default();
        assert!(core
            .cycle(0, 0, &mut mem, &mut threads, &regions, &mut ctl)
            .is_none());
    }
}
