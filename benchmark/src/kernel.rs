//! The reference kernel: a fixed piece of pure-`std` work whose speed tells
//! how fast this host is *right now*.
//!
//! Why it exists. On the shared 2-vCPU sandboxes this repository is
//! measured on, CPU speed swings by ±40 % over seconds to minutes (a bare
//! spin loop shows the same swings; the guest sees no steal time), which no
//! statistic over one run's samples can remove: whole runs are slow. Ten
//! runs of `churn_mem` read 9.4 k – 22.8 k ops/s raw. The swings are a
//! uniform slowdown factor, though: per round, workload time regressed on
//! the time of this kernel run between the workload's slices has slope 0.97
//! and the quotient varies by a few percent. So every time the benchmark
//! reports is divided by the kernel's slowdown measured around it
//! ("reference-speed time"), and the raw reading is printed beside it.
//!
//! The kernel shares no code with the program under test — string-keyed
//! `BTreeMap` probes, small `Vec` growth, integer mixing — so a change to the
//! repository cannot move it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel time that defines reference speed: about what this host's
/// class of machine takes when nothing else contends for the core.
pub const NOMINAL_NS: f64 = 250_000.0;

fn pass() -> u64 {
    let mut map: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    let mut x = 0x1234_5678u64;
    let mut acc = 0u64;
    for i in 0..1_400u64 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let entry = map.entry(format!("k{}", x % 256)).or_default();
        entry.push(i ^ x);
        acc = acc.wrapping_add(entry.len() as u64);
        if i % 3 == 0 {
            if let Some(v) = map.get(&format!("k{}", (x >> 7) % 256)) {
                acc = acc.wrapping_add(v.iter().sum::<u64>());
            }
        }
    }
    acc
}

/// Runs the kernel and returns its time in nanoseconds: the faster of two
/// passes, so a stray interrupt in one of them does not read as slowness.
pub fn probe() -> u64 {
    let mut best = u64::MAX;
    for _ in 0..2 {
        let t = Instant::now();
        black_box(pass());
        best = best.min(t.elapsed().as_nanos() as u64);
    }
    best.max(1)
}

/// The factor that turns a time measured between two probes into
/// reference-speed time.
pub fn factor(before_ns: u64, after_ns: u64) -> f64 {
    NOMINAL_NS / ((before_ns + after_ns) as f64 / 2.0)
}

/// The reference for time spent blocked on the log device: what the
/// engine's durable commit does to its log (append a few hundred bytes,
/// `sync_all`), done by the benchmark to a file of its own next to it. Flush
/// latency on a shared disk drifts by tens of percent over seconds,
/// independently of CPU speed, so waiting time gets its own factor.
pub struct IoProbe {
    file: std::fs::File,
}

/// The flush time that defines reference speed for waits.
pub const IO_NOMINAL_NS: f64 = 150_000.0;

impl IoProbe {
    pub fn create(dir: &std::path::Path) -> std::io::Result<IoProbe> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("io-probe.bin"))?;
        Ok(IoProbe { file })
    }

    /// Nanoseconds of one append + flush: the median of three.
    pub fn probe(&mut self) -> u64 {
        use std::io::Write;
        let mut times = [0u64; 3];
        for t in &mut times {
            let start = Instant::now();
            let ok = self
                .file
                .write_all(&[0x5A; 256])
                .and_then(|()| self.file.sync_all());
            *t = if ok.is_ok() {
                start.elapsed().as_nanos() as u64
            } else {
                IO_NOMINAL_NS as u64
            };
        }
        times.sort_unstable();
        times[1].max(1)
    }
}

pub fn io_factor(before_ns: u64, after_ns: u64) -> f64 {
    IO_NOMINAL_NS / ((before_ns + after_ns) as f64 / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_factor_is_centred() {
        assert_eq!(pass(), pass());
        assert!(probe() > 10_000, "kernel too short to time");
        assert_eq!(factor(NOMINAL_NS as u64, NOMINAL_NS as u64), 1.0);
        assert!(
            factor(500_000, 500_000) < 1.0,
            "a slow host shrinks measured time"
        );
    }
}
