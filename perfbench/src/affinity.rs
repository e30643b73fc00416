//! CPU pinning, so that each client runs on a CPU of its own.
//!
//! With two CPUs, two clients and (for the served workload) two server
//! session workers, an unpinned run switches between scheduling modes from
//! second to second: when a client and the worker it talks to sit on
//! different CPUs, every request costs a cross-CPU wake-up. Pinning client
//! `i`, and its session worker, to CPU `i` keeps one mode for the run. The
//! engine's GC thread is left to the scheduler: pinned to one CPU, it made
//! the client on that CPU much slower than the other, and the latency
//! percentiles of the mix jumped with the clients' shares of commits. On
//! the served workload it runs at a lower priority instead (see
//! [`GC_NICE`]).

/// Nice value of the engine's GC thread, as a database runs its vacuum in
/// the background. At the default priority, a GC pass over a quarter of
/// the served workload's 100,000 accounts held a CPU for ~10 ms at a time,
/// so that from one second to the next 0.5-5% of that workload's
/// transactions stalled behind it; its `txn_p99_us` then swung between
/// 130 µs and 740 µs by slice, and its run medians spread by 20-30%. At
/// nice 10 the clients preempt the pass, the slices' p99 stay within
/// 110-210 µs, and GC still makes ~10 passes a second there, enough to
/// keep 1.1 versions per key. The in-process workloads keep the default
/// priority: their passes are short, and at nice 10 GC fell behind
/// SmallBank at SI, whose versions then doubled within a few seconds.
const GC_NICE: i32 = 10;
/// Name of the engine's GC thread.
const GC_THREAD: &str = "ssi-gc";

/// Lowers the priority of the engine's GC threads to [`GC_NICE`].
pub fn background_gc() {
    for tid in threads_named(GC_THREAD) {
        nice(tid, GC_NICE);
    }
}

/// Pins thread `tid` (0: the calling thread) to CPU `cpu` modulo the CPU
/// count. Best effort: a refused request leaves the thread unpinned.
pub fn pin(tid: i32, cpu: usize) {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = cpu % cpus.min(1024);
    let mut mask = [0u64; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `tid` is 0 or a thread id of this process, and `mask` is a
    // live buffer of exactly the size passed (1024 bits, a `cpu_set_t`).
    unsafe {
        sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr());
    }
}

/// Ids of this process's threads whose name starts with `prefix`.
pub fn threads_named(prefix: &str) -> Vec<i32> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut tids: Vec<i32> = tasks
        .filter_map(|e| {
            let e = e.ok()?;
            let comm = std::fs::read_to_string(e.path().join("comm")).ok()?;
            comm.starts_with(prefix)
                .then(|| e.file_name().to_str()?.parse().ok())?
        })
        .collect();
    tids.sort_unstable();
    tids
}

/// Sets the nice value of thread `tid`. Best effort, like [`pin`].
fn nice(tid: i32, value: i32) {
    extern "C" {
        fn setpriority(which: i32, who: u32, prio: i32) -> i32;
    }
    const PRIO_PROCESS: i32 = 0;
    // SAFETY: a plain system call on a thread id of this process; on Linux
    // `PRIO_PROCESS` with a thread id sets that one thread's nice value.
    unsafe {
        setpriority(PRIO_PROCESS, tid as u32, value);
    }
}
