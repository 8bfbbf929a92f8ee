//! The five workloads. Each implements one thing: a *round* (set up from
//! nothing, warm, measure fixed work, verify) in a given flavour.

pub mod churn;
pub mod operator;
pub mod sweep;
pub mod wire_mix;

use crate::round::{Round, RoundCtx};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ChurnMem,
    ChurnDurable,
    WireMix,
    OperatorQueries,
    SchedSweepSim,
}

pub fn find(name: &str) -> Option<Workload> {
    Some(match name {
        "churn_mem" => Workload::ChurnMem,
        "churn_durable" => Workload::ChurnDurable,
        "wire_mix" => Workload::WireMix,
        "operator_queries" => Workload::OperatorQueries,
        "sched_sweep_sim" => Workload::SchedSweepSim,
        _ => return None,
    })
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::ChurnMem => "churn_mem",
            Workload::ChurnDurable => "churn_durable",
            Workload::WireMix => "wire_mix",
            Workload::OperatorQueries => "operator_queries",
            Workload::SchedSweepSim => "sched_sweep_sim",
        }
    }

    /// Whether the workload has a top layer a `Direct` round can bypass.
    pub fn has_direct(self) -> bool {
        matches!(
            self,
            Workload::ChurnMem | Workload::ChurnDurable | Workload::WireMix
        )
    }

    pub fn round(self, ctx: &mut RoundCtx<'_>) -> Result<Round, String> {
        match self {
            Workload::ChurnMem => churn::round(&churn::CHURN_MEM, ctx),
            Workload::ChurnDurable => churn::round(&churn::CHURN_DURABLE, ctx),
            Workload::WireMix => wire_mix::round(ctx),
            Workload::OperatorQueries => operator::round(ctx),
            Workload::SchedSweepSim => sweep::round(ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round::Flavour;
    use crate::trace::Tracer;
    use std::time::Instant;

    fn traced_round(workload: Workload, seed: u64) -> Round {
        let mut tracer = Tracer::new(Instant::now(), 0, 100_000);
        let mut ctx = RoundCtx {
            seed,
            scale: 20,
            flavour: Flavour::Traced,
            tracer: &mut tracer,
            parent: 0,
            scratch: std::env::temp_dir().join(format!("cas-bench-test-{}", std::process::id())),
            index: seed as usize,
        };
        let round = workload.round(&mut ctx).expect("round runs");
        assert_eq!(round.check_failures, Vec::<String>::new());
        assert_eq!(round.failed, 0);
        assert!(!tracer.spans().is_empty());
        round
    }

    /// Same seed ⇒ the same op stream and exactly the same engine work;
    /// another seed ⇒ another stream.
    #[test]
    fn generators_are_deterministic_per_seed() {
        for workload in [Workload::ChurnMem, Workload::OperatorQueries] {
            let (a, b, c) = (
                traced_round(workload, 7),
                traced_round(workload, 7),
                traced_round(workload, 8),
            );
            assert_eq!(a.stream_hash, b.stream_hash, "{}", workload.name());
            assert_ne!(a.stream_hash, c.stream_hash, "{}", workload.name());
            assert_eq!(a.ops, b.ops);
            let executed = |r: &Round| {
                r.engine
                    .as_ref()
                    .expect("traced")
                    .stat("statements_executed")
            };
            assert!(executed(&a) > 0.0);
            assert_eq!(executed(&a), executed(&b), "{}", workload.name());
            let wal = |r: &Round| r.engine.as_ref().expect("traced").stat("wal_bytes");
            assert_eq!(wal(&a), wal(&b), "{}", workload.name());
        }
    }

    #[test]
    fn every_defined_workload_is_implemented() {
        for name in crate::metrics::workload_names() {
            assert_eq!(find(name).map(Workload::name), Some(name));
        }
        assert!(find("nope").is_none());
    }
}
