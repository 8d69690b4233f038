//! Sample statistics and probes of the host and of this process.
//!
//! Everything here reads `/proc` and `/sys`; a probe that cannot read
//! its file reports 0 rather than failing the run, because the probes
//! explain a timing and never decide whether an output is correct.

use std::fs;

/// Linux reports `/proc/*/stat` times in clock ticks of 1/100 s on
/// every architecture this benchmark targets.
const TICKS_PER_S: f64 = 100.0;

/// Linear-interpolated quantile (`q` in `[0, 1]`) of unsorted samples;
/// 0 for an empty set.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples; 0 for an empty set.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Process and host counters at one instant. Differences of two
/// snapshots taken around a call give what that call cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSnapshot {
    /// User + system CPU seconds of the whole process (all threads,
    /// exited ones included).
    pub cpu_s: f64,
    /// Minor page faults of the whole process.
    pub minor_faults: u64,
    /// Seconds the calling thread has waited on a run queue.
    pub runq_wait_s: f64,
    /// Host-wide steal seconds summed over CPUs.
    pub steal_s: f64,
}

impl ProcSnapshot {
    /// Reads the counters now.
    pub fn now() -> Self {
        let mut snap = ProcSnapshot::default();
        if let Some((cpu_s, minor_faults)) = rusage_self() {
            snap.cpu_s = cpu_s;
            snap.minor_faults = minor_faults;
        }
        if let Ok(s) = fs::read_to_string("/proc/thread-self/schedstat") {
            let wait_ns = s
                .split_whitespace()
                .nth(1)
                .and_then(|x| x.parse::<u64>().ok());
            snap.runq_wait_s = wait_ns.unwrap_or(0) as f64 * 1e-9;
        }
        if let Ok(s) = fs::read_to_string("/proc/stat") {
            let steal = s
                .lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|x| x.parse::<u64>().ok());
            snap.steal_s = steal.unwrap_or(0) as f64 / TICKS_PER_S;
        }
        snap
    }

    /// Counters accumulated between `earlier` and `self`.
    pub fn since(&self, earlier: &ProcSnapshot) -> ProcSnapshot {
        ProcSnapshot {
            cpu_s: self.cpu_s - earlier.cpu_s,
            minor_faults: self.minor_faults.saturating_sub(earlier.minor_faults),
            runq_wait_s: self.runq_wait_s - earlier.runq_wait_s,
            steal_s: self.steal_s - earlier.steal_s,
        }
    }
}

/// `getrusage(RUSAGE_SELF)`: CPU seconds (user + system, every thread
/// the process has run, exited ones included) and minor page faults.
/// `/proc/self/stat` has the same counters only in 10 ms ticks, too
/// coarse for a 50 ms index build.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn rusage_self() -> Option<(f64, u64)> {
    /// `struct timeval` on 64-bit Linux.
    #[repr(C)]
    #[derive(Default)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    /// `struct rusage` on 64-bit Linux: two timevals, then 14 longs
    /// starting with `ru_maxrss`; `ru_minflt` is the fifth of them.
    #[repr(C)]
    #[derive(Default)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        longs: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut u = Rusage::default();
    // SAFETY: `u` is a live, writable `struct rusage` with the C layout
    // of this target, and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    if rc != 0 {
        return None;
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Some((secs(&u.utime) + secs(&u.stime), u.longs[4] as u64))
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn rusage_self() -> Option<(f64, u64)> {
    None
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    let kb = fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|x| x.parse::<u64>().ok())
        })
        .unwrap_or(0);
    kb as f64 / 1024.0
}

/// The host a result was measured on, as a JSON object: processor
/// count, CPU model, cache sizes, compiler and build profile.
pub fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let model = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let mut caches = Vec::new();
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read = |f: &str| fs::read_to_string(format!("{dir}/{f}")).map(|s| s.trim().to_string());
        let (Ok(level), Ok(kind), Ok(size)) = (read("level"), read("type"), read("size")) else {
            break;
        };
        caches.push(format!("\"L{level} {kind}\":\"{size}\""));
    }
    format!(
        concat!(
            "{{\"nproc\":{},\"cpu\":\"{}\",\"caches\":{{{}}},",
            "\"rustc\":\"{}\",\"profile\":\"{}\"}}"
        ),
        nproc,
        escape(&model),
        caches.join(","),
        escape(env!("PERFBENCH_RUSTC")),
        env!("PERFBENCH_PROFILE"),
    )
}

/// Escapes a string for a JSON string literal.
pub fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }
}
