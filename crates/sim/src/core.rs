//! The [`Core`] trait: the contract every core model satisfies.
//!
//! Replaces the closed `AnyCore` enum the machine used to dispatch
//! through. The machine drives cores purely through this trait, so a
//! machine can mix slot kinds freely (the heterogeneous-CMP scenarios of
//! Porobic et al. and Schall & Härder) and new core models plug in
//! without touching the cycle loop.
//!
//! Replay is event-driven: after every charged cycle the machine asks
//! the core how far it can run on its own ([`Core::span`]). The core
//! applies the coming cycles that make no memory-system call and charge
//! one class in a single step, and the machine does not call it again
//! until the span's end, charging the span's cycles in bulk.

use dbcmp_trace::region::CodeRegions;

use crate::ctx::CtxBase;
use crate::cursor::ThreadState;
use crate::machine::MachineCtl;
use crate::memsys::MemSys;
use crate::stats::CycleClass;

/// One core slot of a machine. Implementations own their hardware
/// contexts ([`CtxBase`]) and per-window retirement counter; the machine
/// owns the threads, the memory system, and the clock.
pub trait Core {
    /// Simulate one cycle as core number `core` at time `now`. Returns
    /// the cycle's accounting class, or `None` when the core has no work
    /// at all: no thread bound or queued. That is final, so the machine
    /// neither charges nor calls the core again.
    fn cycle(
        &mut self,
        core: usize,
        now: u64,
        mem: &mut MemSys,
        threads: &mut [ThreadState<'_>],
        regions: &CodeRegions,
        ctl: &mut MachineCtl,
    ) -> Option<CycleClass>;

    /// Asked after every [`cycle`](Self::cycle) at `now` that charged a
    /// class: run the coming cycles that need nothing from outside the
    /// core. A span is a run of cycles `now + 1 .. wake`, all charged the
    /// same `class`, none of which calls the memory system or reads a
    /// trace, and none of which retires work for a thread that has
    /// finished. The core applies the span's effects (retirement,
    /// decode inside a fetched I-line, fetch offsets, misprediction
    /// accrual, quantum and round-robin bookkeeping, `ctl.instrs`)
    /// before it returns `(wake, class)`; the machine then charges the
    /// span in bulk and does not call the core again until `wake`, the
    /// first cycle that must run. `wake <= end`, so no span crosses a
    /// window edge. `None` means the next cycle must run. A span of
    /// pure no-op cycles (a stalled core) is the degenerate case.
    fn span(
        &mut self,
        now: u64,
        end: u64,
        threads: &mut [ThreadState<'_>],
        regions: &CodeRegions,
        ctl: &mut MachineCtl,
    ) -> Option<(u64, CycleClass)>;

    /// The core's hardware contexts (thread slots), in binding order.
    fn contexts(&self) -> &[CtxBase];

    /// Mutable access to the contexts, for thread binding.
    fn contexts_mut(&mut self) -> &mut [CtxBase];

    /// Mutable access to the per-window retirement counter (the shared
    /// reset plumbing; concrete models expose the count as a field).
    fn retired_mut(&mut self) -> &mut u64;

    /// Zero the measurement counters at the end of warm-up. Cores with
    /// extra window state override and call the default.
    fn reset_counters(&mut self) {
        *self.retired_mut() = 0;
    }
}

/// Drive one core alone as the machine does: call `cycle`, then let the
/// core run its span, until it reports no work. Returns the cycle at
/// which it did and the per-class breakdown (test support for the core
/// models' pinned span tests).
#[cfg(test)]
pub(crate) fn drive_alone(
    core: &mut dyn Core,
    mem: &mut MemSys,
    threads: &mut [ThreadState<'_>],
    regions: &CodeRegions,
    ctl: &mut MachineCtl,
) -> (u64, crate::stats::Breakdown) {
    let mut b = crate::stats::Breakdown::default();
    let mut now = 0;
    while let Some(class) = core.cycle(0, now, mem, threads, regions, ctl) {
        b.charge(class, 1);
        now += 1;
        if let Some((wake, class)) = core.span(now - 1, u64::MAX, threads, regions, ctl) {
            b.charge(class, wake - now);
            now = wake;
        }
    }
    (now, b)
}
