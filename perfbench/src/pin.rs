//! CPU pinning of the workload process.
//!
//! Every workload runs with all of its threads — servers and load
//! generators alike — on one CPU. Left to the scheduler on a two-vCPU
//! virtual machine, the threads of one request chain (client, proxy
//! worker, origin) land on the same CPU in some rounds and on different
//! CPUs in others; a wake-up that crosses to an idle vCPU costs about
//! 25 µs here, so the same binary reads 26 µs in one round and 100 µs in
//! the next. On one CPU a request costs its CPU work plus its context
//! switches, which is what a change to the code moves.

/// The CPUs the calling thread may run on, as the kernel lists them
/// (`0-1`, `3`, ...).
fn allowed_cpus() -> Option<String> {
    let status = std::fs::read_to_string("/proc/thread-self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    Some(list.trim().to_string())
}

/// The highest-numbered allowed CPU: the lowest numbers take most
/// interrupts.
fn last_allowed_cpu() -> Option<usize> {
    allowed_cpus()?.rsplit([',', '-']).next()?.parse().ok()
}

extern "C" {
    /// `sched_setaffinity(2)`; `pid` 0 is the calling thread.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u8) -> i32;
}

/// Bytes of the CPU mask handed to the kernel: room for 1024 CPUs.
const MASK_BYTES: usize = 128;

/// Pins the calling thread, and so every thread it spawns afterwards, to
/// one CPU. Returns that CPU, or `None` if pinning was not possible (the
/// run goes on unpinned and says so).
pub fn pin_to_one_cpu() -> Option<usize> {
    let cpu = last_allowed_cpu()?;
    let mut mask = [0u8; MASK_BYTES];
    *mask.get_mut(cpu / 8)? |= 1 << (cpu % 8);
    // SAFETY: `mask` is a live, initialised buffer of exactly
    // `MASK_BYTES` bytes, the length passed alongside it, and the kernel
    // only reads from it; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, MASK_BYTES, mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// (stolen, total) scheduler ticks of `cpu` — of all CPUs when `None` —
/// since boot, from `/proc/stat`. Stolen time is what the hypervisor gave
/// to other guests while this one had work: the share of it over a run
/// says how much the shared host disturbed that run.
pub fn stolen_ticks(cpu: Option<usize>) -> Option<(u64, u64)> {
    let label = cpu.map_or("cpu".to_string(), |c| format!("cpu{c}"));
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .find_map(|l| l.strip_prefix(&label)?.strip_prefix(' '))?
        .split_whitespace()
        .filter_map(|v| v.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal; guest time is
    // already counted in user.
    (ticks.len() >= 8).then(|| (ticks[7], ticks[..8].iter().sum()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stolen_ticks_are_a_share_of_the_total() {
        for cpu in [None, Some(0)] {
            let (stolen, total) = stolen_ticks(cpu).expect("/proc/stat lists the CPU");
            assert!(stolen <= total && total > 0);
        }
    }

    #[test]
    fn pinning_narrows_the_allowed_list_to_one_cpu() {
        // In a thread of its own: the pin must not leak into other tests.
        std::thread::spawn(|| {
            let cpu = pin_to_one_cpu().expect("pinning works on Linux");
            assert_eq!(allowed_cpus(), Some(cpu.to_string()));
        })
        .join()
        .unwrap();
    }
}
