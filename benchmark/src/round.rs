//! What one *round* of a workload is and what it reports.
//!
//! A run is a sequence of rounds. Each round sets the system up from
//! nothing, warms it, measures a **fixed amount of work**, and checks the
//! outputs; rounds repeat until the run's `--seconds` of measured time are
//! used up. Fixed work per round is what makes single-client engine
//! counters repeat exactly, keeps peak memory independent of how fast the
//! code is, and lets every reported number be a median over rounds.

use crate::engine::Delta;
use crate::stats::Samples;
use crate::trace::{SpanId, Tracer};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// How a round drives the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Flavour {
    /// The workload as specified, no spans, no counter readings.
    #[default]
    Untraced,
    /// The same work with spans recorded and engine counters read around
    /// the measured phase.
    Traced,
    /// Traced, with the workload's top layer bypassed: `churn_*` calls
    /// `CasState` methods instead of `AppContainer::handle`, `wire_mix` runs
    /// its statements through an embedded `Session` instead of the socket.
    /// The difference to `Traced` is that layer's self time.
    Direct,
}

impl Flavour {
    pub fn traced(self) -> bool {
        self != Flavour::Untraced
    }
}

/// Everything a round needs from the run.
pub struct RoundCtx<'a> {
    pub seed: u64,
    /// Work divisor: 1 for a real run, 20 for `--smoke`.
    pub scale: u64,
    pub flavour: Flavour,
    pub tracer: &'a mut Tracer,
    /// The workload-level span this round's phases hang under.
    pub parent: SpanId,
    /// Scratch directory inside the checkout (durable workloads).
    pub scratch: PathBuf,
    pub index: usize,
}

/// What one round measured.
#[derive(Debug, Default)]
pub struct Round {
    pub flavour: Flavour,
    /// Set-up, measured-phase wall and process CPU time (all threads) of the
    /// measured phase, in seconds **at reference speed** (see `kernel.rs`).
    pub setup_s: f64,
    pub measure_s: f64,
    pub cpu_s: f64,
    /// The same as the clock read them.
    pub setup_raw_s: f64,
    pub measure_raw_s: f64,
    /// Ops attempted / failed in the measured phase.
    pub ops: u64,
    pub failed: u64,
    /// Latency samples per op kind at reference speed. Kinds listed in
    /// `op_kinds` make up the workload's ops; others are timed alongside
    /// (e.g. interleaved writes).
    pub kinds: BTreeMap<&'static str, Samples>,
    pub op_kinds: Vec<&'static str>,
    /// The workload's most frequent and its costliest op kind.
    pub light: &'static str,
    pub heavy: &'static str,
    /// Workload-specific values (jobs completed, recovery time, …).
    pub extra: BTreeMap<String, f64>,
    /// Engine work during the measured phase (traced flavours only).
    pub engine: Option<Delta>,
    /// Failed correctness checks; empty means the round's outputs were right.
    pub check_failures: Vec<String>,
    /// Fingerprint of the generated op stream.
    pub stream_hash: u64,
}

impl Round {
    pub fn extra(&self, name: &str) -> f64 {
        self.extra.get(name).copied().unwrap_or(0.0)
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.extra.insert(name.to_string(), value);
    }

    /// The factor that took this round's measured phase to reference
    /// speed, on average.
    pub fn speed(&self) -> f64 {
        if self.measure_raw_s > 0.0 {
            self.measure_s / self.measure_raw_s
        } else {
            1.0
        }
    }

    pub fn ops_per_s(&self) -> f64 {
        if self.measure_s > 0.0 {
            self.ops as f64 / self.measure_s
        } else {
            0.0
        }
    }

    /// How many latency samples the round's ops left.
    pub fn op_samples(&self) -> usize {
        let kinds = self.op_kinds.iter().filter_map(|k| self.kinds.get(k));
        kinds.map(Samples::len).sum()
    }

    /// All op-kind samples pooled, sorted.
    pub fn all_ops(&self) -> Samples {
        let mut all = Samples::default();
        for s in self.op_kinds.iter().filter_map(|k| self.kinds.get(k)) {
            all.extend(s);
        }
        all.sort();
        all
    }

    pub fn kind_p50_us(&self, kind: &str) -> f64 {
        self.kinds.get(kind).map_or(0.0, Samples::p50_us)
    }

    pub fn kind_p99_us(&self, kind: &str) -> f64 {
        self.kinds.get(kind).map_or(0.0, Samples::p99_us)
    }

    pub fn kind_mean_us(&self, kind: &str) -> f64 {
        self.kinds.get(kind).map_or(0.0, Samples::mean_us)
    }

    /// Files what a meter measured, and the phase's CPU time (less the
    /// probes' own, scaled like the wall time).
    pub fn take_measured(&mut self, m: Measured, cpu_raw_s: f64) {
        self.cpu_s = (cpu_raw_s - m.kernel_s).max(0.0) * m.cpu_factor;
        self.measure_s = m.wall_norm_s;
        self.measure_raw_s = m.wall_raw_s;
        self.kinds = m.samples;
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }
}

/// Times a round's set-up between two reference-kernel probes.
pub struct SetupClock {
    kernel_ns: u64,
    start: Instant,
}

impl SetupClock {
    pub fn start() -> Self {
        let kernel_ns = crate::kernel::probe();
        SetupClock {
            kernel_ns,
            start: Instant::now(),
        }
    }

    pub fn stop(self, round: &mut Round) {
        round.setup_raw_s = self.start.elapsed().as_secs_f64();
        let factor = crate::kernel::factor(self.kernel_ns, crate::kernel::probe());
        round.setup_s = round.setup_raw_s * factor;
    }
}

/// The median over `rounds` of a per-round value.
pub fn median_over(rounds: &[&Round], value: impl Fn(&Round) -> f64) -> f64 {
    crate::stats::median(&rounds.iter().map(|r| value(r)).collect::<Vec<_>>())
}

/// Ops that failed (an error reply) and replies that were wrong.
#[derive(Default)]
pub struct Tally {
    pub failed: u64,
    pub wrong: u64,
    pub first: Option<String>,
}

impl Tally {
    pub fn failed(&mut self, what: String) {
        self.failed += 1;
        self.first.get_or_insert(what);
    }

    pub fn wrong(&mut self, what: String) {
        self.wrong += 1;
        self.first.get_or_insert(what);
    }
}

/// How long a slice of the measured phase runs before the meter cuts it
/// and probes the host's speed again (longer when a cut also flushes).
const SLICE: Duration = Duration::from_millis(8);
const SLICE_WITH_IO: Duration = Duration::from_millis(20);
const MAX_KINDS: usize = 8;

struct Mark {
    /// Reference-kernel time measured just before the slice.
    kernel_ns: u64,
    start: Instant,
    /// Wall time of the slice (kernel and excluded time not included).
    wall_ns: u64,
    /// The thread's on-CPU time at the slice's start, then over the slice
    /// (only when waits are split out).
    cpu_ns: u64,
    /// Reference flush time measured just before the slice (ditto).
    io_ns: u64,
    /// Per kind, the index of the slice's first sample.
    first: [usize; MAX_KINDS],
}

/// Times the calls of a measured phase.
///
/// Every call is filed under its kind as a latency sample and — in a traced
/// round — as a leaf span built from the same two clock reads. The phase is
/// cut into slices of about 8 ms; between slices the meter runs the
/// reference kernel (`kernel.rs`), and when the phase ends every sample and
/// every slice's wall time is also expressed at reference speed, using the
/// mean of the two probes around its slice.
pub struct Meter<'a> {
    tracer: &'a mut Tracer,
    parent: SpanId,
    next_request: u32,
    kinds: Vec<(&'static str, Vec<u64>)>,
    marks: Vec<Mark>,
    excluded_ns: u64,
    kernel_ns_total: u64,
    /// A meter that keeps nothing (set-up and warm-up traffic).
    discard: bool,
    split_waits: Option<crate::kernel::IoProbe>,
    slice: Duration,
}

/// What a meter measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Latency samples per kind at reference speed, sorted.
    pub samples: BTreeMap<&'static str, Samples>,
    pub wall_raw_s: f64,
    pub wall_norm_s: f64,
    /// The mean factor applied to on-CPU time (what CPU seconds scale by).
    pub cpu_factor: f64,
    /// Time spent inside reference-kernel probes (pure CPU, not the
    /// workload's).
    pub kernel_s: f64,
}

impl Measured {
    /// Adds what a thread that ran side by side with this one measured:
    /// samples pool, the wall time is the slower thread's.
    pub fn absorb_parallel(&mut self, other: Measured) {
        for (kind, samples) in other.samples {
            let pooled = self.samples.entry(kind).or_default();
            pooled.extend(&samples);
            pooled.sort();
        }
        self.cpu_factor = if self.cpu_factor == 0.0 {
            other.cpu_factor
        } else {
            (self.cpu_factor + other.cpu_factor) / 2.0
        };
        self.wall_raw_s = self.wall_raw_s.max(other.wall_raw_s);
        self.wall_norm_s = self.wall_norm_s.max(other.wall_norm_s);
        self.kernel_s += other.kernel_s;
    }
}

impl<'a> Meter<'a> {
    pub fn new(tracer: &'a mut Tracer, parent: SpanId, kinds: &[(&'static str, usize)]) -> Self {
        assert!(kinds.len() <= MAX_KINDS);
        let mut meter = Meter {
            tracer,
            parent,
            next_request: 1,
            kinds: kinds
                .iter()
                .map(|(k, cap)| (*k, Vec::with_capacity(*cap)))
                .collect(),
            marks: Vec::with_capacity(4096),
            excluded_ns: 0,
            kernel_ns_total: 0,
            discard: false,
            split_waits: None,
            slice: SLICE,
        };
        meter.cut();
        meter
    }

    /// For a single-threaded workload that spends much of its wall time
    /// blocked on the log device: the thread's on-CPU share of each slice
    /// is taken to reference speed by the CPU kernel, the rest — waiting
    /// for flushes — by the flush probe, whose speed drifts separately.
    pub fn splitting_waits(mut self, mut io: crate::kernel::IoProbe) -> Self {
        if let Some(mark) = self.marks.last_mut() {
            mark.io_ns = io.probe();
            mark.cpu_ns = crate::host::thread_cpu_ns();
            mark.start = Instant::now();
        }
        self.split_waits = Some(io);
        self.slice = SLICE_WITH_IO;
        self
    }

    pub fn discarding(tracer: &'a mut Tracer) -> Self {
        Meter {
            tracer,
            parent: 0,
            next_request: 1,
            kinds: Vec::new(),
            marks: Vec::new(),
            excluded_ns: 0,
            kernel_ns_total: 0,
            discard: true,
            split_waits: None,
            slice: SLICE,
        }
    }

    /// The thread's on-CPU time so far, when waits are split out.
    fn thread_cpu_ns(&self) -> u64 {
        if self.split_waits.is_some() {
            crate::host::thread_cpu_ns()
        } else {
            0
        }
    }

    fn close(&mut self, now: Instant) {
        let cpu_now = self.thread_cpu_ns();
        if let Some(mark) = self.marks.last_mut() {
            let wall = now.saturating_duration_since(mark.start).as_nanos() as u64;
            mark.wall_ns = wall.saturating_sub(self.excluded_ns);
            mark.cpu_ns = cpu_now.saturating_sub(mark.cpu_ns).min(mark.wall_ns);
        }
        self.excluded_ns = 0;
    }

    /// Ends the current slice, probes the host's speed, starts the next.
    fn cut(&mut self) {
        self.close(Instant::now());
        let kernel_ns = crate::kernel::probe();
        self.kernel_ns_total += 2 * kernel_ns;
        let mut first = [0usize; MAX_KINDS];
        for (slot, (_, samples)) in first.iter_mut().zip(&self.kinds) {
            *slot = samples.len();
        }
        let io_ns = self.split_waits.as_mut().map_or(0, |io| io.probe());
        let cpu_ns = self.thread_cpu_ns();
        self.marks.push(Mark {
            kernel_ns,
            start: Instant::now(),
            wall_ns: 0,
            cpu_ns,
            io_ns,
            first,
        });
    }

    /// Takes `nanos` out of the current slice's wall time (work the
    /// benchmark does between calls that is not the workload's).
    pub fn exclude(&mut self, nanos: u64) {
        self.excluded_ns += nanos;
    }

    #[inline]
    pub fn record(&mut self, kind: &'static str, start: Instant, end: Instant) {
        self.record_value(
            kind,
            end.saturating_duration_since(start).as_nanos() as u64,
            1,
            start,
            end,
        );
    }

    /// Files `weight` samples of `nanos` under `kind` for one span from
    /// `start` to `end`: the sim cannot time single calls inside its event
    /// loop, so every call of a slice gets the slice's wall time per call.
    pub fn record_value(
        &mut self,
        kind: &'static str,
        nanos: u64,
        weight: usize,
        start: Instant,
        end: Instant,
    ) {
        if self.discard {
            return;
        }
        match self.kinds.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, samples)) => samples.extend(std::iter::repeat_n(nanos, weight)),
            None => {
                assert!(self.kinds.len() < MAX_KINDS, "too many op kinds");
                self.kinds.push((kind, vec![nanos; weight]));
            }
        }
        let request = self.next_request;
        self.next_request = request.wrapping_add(1);
        self.tracer.leaf(kind, self.parent, request, start, end);
        if let Some(mark) = self.marks.last() {
            if end.saturating_duration_since(mark.start) >= self.slice {
                self.cut();
            }
        }
    }

    /// Ends the phase: one last probe, then everything at both speeds.
    pub fn finish(mut self) -> Measured {
        let mut out = Measured::default();
        if self.discard {
            return out;
        }
        self.close(Instant::now());
        let last_kernel = crate::kernel::probe();
        let last_io = self.split_waits.as_mut().map_or(0, |io| io.probe());
        self.kernel_ns_total += 2 * last_kernel;
        out.kernel_s = self.kernel_ns_total as f64 / 1e9;
        let slices = self.marks.len();
        let mut cpu_weighted = 0.0;
        let factors: Vec<f64> = (0..slices)
            .map(|i| {
                let mark = &self.marks[i];
                let after = self.marks.get(i + 1).map_or(last_kernel, |m| m.kernel_ns);
                let f = crate::kernel::factor(mark.kernel_ns, after);
                cpu_weighted += f * mark.wall_ns as f64;
                if self.split_waits.is_some() && mark.wall_ns > 0 {
                    let io_after = self.marks.get(i + 1).map_or(last_io, |m| m.io_ns);
                    let on_cpu = mark.cpu_ns as f64 / mark.wall_ns as f64;
                    on_cpu * f + (1.0 - on_cpu) * crate::kernel::io_factor(mark.io_ns, io_after)
                } else {
                    f
                }
            })
            .collect();
        for (mark, f) in self.marks.iter().zip(&factors) {
            out.wall_raw_s += mark.wall_ns as f64 / 1e9;
            out.wall_norm_s += mark.wall_ns as f64 / 1e9 * f;
        }
        out.cpu_factor = if out.wall_raw_s > 0.0 {
            cpu_weighted / 1e9 / out.wall_raw_s
        } else {
            1.0
        };
        for (k, (kind, samples)) in self.kinds.iter().enumerate() {
            let mut norm = Samples::with_capacity(samples.len());
            for (i, f) in factors.iter().enumerate() {
                let lo = self.marks[i].first[k].min(samples.len());
                let hi = self
                    .marks
                    .get(i + 1)
                    .map_or(samples.len(), |m| m.first[k].min(samples.len()));
                for &nanos in &samples[lo..hi.max(lo)] {
                    norm.push((nanos as f64 * f) as u64);
                }
            }
            norm.sort();
            out.samples.insert(kind, norm);
        }
        out
    }
}
