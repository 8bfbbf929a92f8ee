//! What the benchmark reads about its own process and host, all from
//! `/proc` (no libc dependency): peak resident memory, CPU time, core count.

use std::fs;

fn proc_status_kb(field: &str) -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size of this process (`VmHWM`) in MB. Every workload run
/// is its own process, so this is the run's own high-water mark.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").unwrap_or(0.0) / 1024.0
}

/// User + system CPU time of all threads of this process, in seconds.
/// `/proc/self/stat` counts in clock ticks; Linux fixes `USER_HZ` at 100.
pub fn cpu_seconds() -> f64 {
    const USER_HZ: f64 = 100.0;
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state): utime and stime are fields 14, 15.
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / USER_HZ
}

/// Nanoseconds the calling thread has spent on a CPU
/// (`/proc/thread-self/schedstat`, nanosecond resolution).
pub fn thread_cpu_ns() -> u64 {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

pub fn kernel() -> String {
    fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_sane() {
        assert!(peak_rss_mb() > 0.5);
        assert!(nproc() >= 1);
        assert!(!kernel().is_empty());
        let before = cpu_seconds();
        let mut x = 0u64;
        while cpu_seconds() - before < 0.02 {
            for i in 0..1_000_000u64 {
                x = x.wrapping_add(std::hint::black_box(i));
            }
        }
        assert!(x > 0);
    }
}
