//! The [`Core`] trait: the contract every core model satisfies.
//!
//! Replaces the closed `AnyCore` enum the machine used to dispatch
//! through. The machine drives cores purely through this trait, so a
//! machine can mix slot kinds freely (the heterogeneous-CMP scenarios of
//! Porobic et al. and Schall & Härder) and new core models plug in
//! without touching the cycle loop.
//!
//! Replay is event-driven: after a stall cycle the machine asks the core
//! whether its coming cycles are pure no-ops ([`Core::sleep`]) and, if
//! so, stops calling it until its wake-up cycle, charging the skipped
//! cycles in bulk.

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

    /// Asked after [`cycle`](Self::cycle) at `now` charged a stall class:
    /// are the coming cycles pure no-ops — no memory-system call, no
    /// trace read, no state change beyond per-cycle bookkeeping? If so,
    /// return `(wake, class)`: every cycle in `now + 1 .. wake` would
    /// charge `class`, and `wake` is the first cycle that must run. The
    /// core applies the span's bookkeeping before returning, so the
    /// machine does not call it again until `wake`. `None` means the next
    /// cycle must run (always exact, never skips).
    fn sleep(&mut self, now: u64, threads: &[ThreadState<'_>]) -> Option<(u64, CycleClass)>;

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
