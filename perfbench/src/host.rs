//! The host the benchmark runs on: its steal time, and the one-CPU,
//! never-idle setting `tcp-closed` measures in.
//!
//! On a VM, a vCPU with nothing to run halts, and the hypervisor may
//! give its physical CPU to another guest; the next wakeup on that vCPU
//! then waits until the hypervisor runs it again, and the wait shows as
//! steal time. A closed loop with one edge in flight hands every edge
//! from thread to thread and idles in between, so unpinned its latency
//! followed the other guests' load: an earlier `tcp-closed`, which sent
//! each `Detect` only after the edge's ack, read p50 391–408 us at
//! 0.7–1.5% steal and 888–974 us at 24–27%, on the same code.
//! `OneBusyCpu` removes that wait. The process runs on one CPU, so each
//! handoff is a local context switch, and an idle-priority thread keeps
//! that CPU from halting; the scheduler preempts it the moment any other
//! thread there can run.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// `(steal, total)` CPU ticks of the host so far, from the `cpu` line of
/// `/proc/stat`; `None` if it cannot be read.
pub fn cpu_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    (ticks.len() == 8).then(|| (ticks[7], ticks.iter().sum()))
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

/// Linux's `SCHED_IDLE` policy: runs only when nothing else can.
const SCHED_IDLE: i32 = 5;
/// A `cpu_set_t` as 64-bit words (1024 CPUs).
const MASK_WORDS: usize = 16;

/// The calling thread, and every thread it starts from now on, pinned to
/// one CPU that an idle-priority spinner keeps from halting.
pub struct OneBusyCpu {
    pub cpu: usize,
    /// The calling thread's affinity mask before it was pinned.
    was: [u64; MASK_WORDS],
    stop: Arc<AtomicBool>,
    spinner: JoinHandle<()>,
}

impl OneBusyCpu {
    /// Pins to the lowest CPU the process may run on and starts the
    /// spinner there. `None` when an affinity or scheduler call fails;
    /// the calling thread may then already be pinned, but no spinner runs.
    pub fn start() -> Option<OneBusyCpu> {
        let (cpu, was) = pin_to_lowest_cpu()?;
        let stop = Arc::new(AtomicBool::new(false));
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let flag = Arc::clone(&stop);
        let spinner = std::thread::spawn(move || {
            let policy = 0i32;
            // SAFETY: `policy` is a live `struct sched_param` (one int);
            // the call only reads it, and pid 0 is this thread.
            let idle = unsafe { sched_setscheduler(0, SCHED_IDLE, &policy) } == 0;
            let _ = ready_tx.send(idle);
            // Spinning at normal priority would take the CPU from the
            // system under test, so spin only at idle priority.
            // audit: a stop flag; nothing is published through it.
            while idle && !flag.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        });
        if ready_rx.recv() == Ok(true) {
            Some(OneBusyCpu { cpu, was, stop, spinner })
        } else {
            let _ = spinner.join();
            None
        }
    }

    /// Stops the spinner, waits for it and gives the calling thread its
    /// former affinity back. Threads started meanwhile stay pinned.
    pub fn stop(self) {
        // audit: a stop flag; `join` orders everything after it.
        self.stop.store(true, Ordering::Relaxed);
        let _ = self.spinner.join();
        set_affinity(&self.was);
    }
}

/// Restricts the calling thread to the lowest CPU in its affinity mask;
/// returns that CPU and the former mask.
fn pin_to_lowest_cpu() -> Option<(usize, [u64; MASK_WORDS])> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the size
    // passed; the call writes at most that many bytes into it.
    let got = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if got != 0 {
        return None;
    }
    let cpu = (0..MASK_WORDS * 64).find(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    set_affinity(&one).then_some((cpu, mask))
}

/// Sets the calling thread's affinity mask; true on success.
fn set_affinity(mask: &[u64; MASK_WORDS]) -> bool {
    // SAFETY: `mask` is a live buffer of exactly the size passed; the
    // call only reads it.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
}
