//! Pinning the interleaved capture to one CPU.
//!
//! `capture_oltp_interleaved` runs one OS thread per client and passes a
//! baton between them and the calling thread at every slice, so only one
//! of them runs at a time. Left to the scheduler, the threads spread over
//! the host's CPUs and every hand-off wakes a thread on another CPU. The
//! latency of that wake-up depends on what else the host runs, and it
//! swung the contended workload's `setup_s` by up to 2x between runs. On
//! one CPU every hand-off is a plain context switch, and parallelism is
//! not lost because only one thread runs at a time anyway.

/// Run `f` with the calling thread pinned to the lowest CPU it may run
/// on. Threads spawned inside `f` inherit the pin. The thread's CPU set
/// is restored when `f` returns or unwinds. Where the CPU set cannot be
/// read or changed, `f` runs unpinned.
pub fn on_one_cpu<T>(f: impl FnOnce() -> T) -> T {
    let _pin = sys::Pin::new();
    f()
}

#[cfg(target_os = "linux")]
mod sys {
    use std::ffi::c_int;

    /// glibc's `cpu_set_t`: a 1024-bit mask.
    type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
        fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
    }

    /// The calling thread's CPU set (pid 0 names the calling thread).
    fn get() -> Option<CpuSet> {
        let mut mask: CpuSet = [0; 16];
        // SAFETY: `mask` is a writable buffer of exactly the size passed.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
        (rc == 0).then_some(mask)
    }

    fn set(mask: &CpuSet) -> bool {
        // SAFETY: `mask` is a readable buffer of exactly the size passed.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask) == 0 }
    }

    /// Restores the saved CPU set on drop.
    pub struct Pin(Option<CpuSet>);

    impl Pin {
        pub fn new() -> Self {
            let Some(saved) = get() else {
                return Pin(None);
            };
            let Some(word) = saved.iter().position(|&w| w != 0) else {
                return Pin(None);
            };
            let mut one: CpuSet = [0; 16];
            one[word] = 1 << saved[word].trailing_zeros();
            Pin(set(&one).then_some(saved))
        }
    }

    impl Drop for Pin {
        fn drop(&mut self) {
            if let Some(saved) = &self.0 {
                set(saved);
            }
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub struct Pin;

    impl Pin {
        pub fn new() -> Self {
            Pin
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawned_threads_share_the_pin_and_the_set_is_restored() {
        let before = std::thread::available_parallelism().map_or(1, |p| p.get());
        let inside = on_one_cpu(|| {
            std::thread::spawn(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
                .join()
                .expect("thread joins")
        });
        if cfg!(target_os = "linux") {
            assert_eq!(inside, 1);
        }
        let after = std::thread::available_parallelism().map_or(1, |p| p.get());
        assert_eq!(before, after);
    }
}
