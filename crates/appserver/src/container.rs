//! The application container: request dispatch with cost accounting.
//!
//! [`AppContainer`] plays the role of JBoss AS in the paper's deployment: it
//! owns the connection pool and the service registry, dispatches each incoming
//! request to its endpoint, measures the database work the request caused, and
//! charges the resulting CPU time to the server's [`CpuAccountant`]. It also
//! runs the periodic database maintenance task (the stand-in for the DB2
//! background process responsible for the two-hourly spikes in Figure 10).

use crate::cost::{CostModel, RequestCost};
use crate::message::{SoapRequest, SoapResponse};
use crate::pool::{ConnectionPool, PoolStats};
use crate::service::ServiceRegistry;
use cluster_sim::{CpuAccountant, CpuSample, SimDuration, SimTime};
use relstore::Database;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Per-operation request metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OperationMetrics {
    /// Requests handled.
    pub requests: u64,
    /// Requests that returned a fault.
    pub faults: u64,
    /// Total busy CPU time attributed to the operation.
    pub total_cost: RequestCost,
}

/// The application container.
pub struct AppContainer<C> {
    db: Arc<Database>,
    registry: ServiceRegistry<C>,
    pool: ConnectionPool,
    cost_model: CostModel,
    cpu: CpuAccountant,
    metrics: BTreeMap<String, OperationMetrics>,
    maintenance_interval: SimDuration,
    last_maintenance: SimTime,
    requests_handled: u64,
}

impl<C> AppContainer<C> {
    /// Creates a container over a shared database.
    ///
    /// `cores` and `sample_interval` configure the CPU accountant for the
    /// machine hosting the container (the paper's CAS host has four cores and
    /// is sampled once a minute).
    pub fn new(
        db: Arc<Database>,
        registry: ServiceRegistry<C>,
        cost_model: CostModel,
        pool_size: usize,
        cores: u32,
        sample_interval: SimDuration,
    ) -> Self {
        AppContainer {
            db,
            registry,
            pool: ConnectionPool::new(pool_size),
            cost_model,
            cpu: CpuAccountant::new(cores, sample_interval),
            metrics: BTreeMap::new(),
            maintenance_interval: SimDuration::from_mins(120),
            last_maintenance: SimTime::ZERO,
            requests_handled: 0,
        }
    }

    /// Sets the interval of the periodic database maintenance task.
    pub fn set_maintenance_interval(&mut self, interval: SimDuration) {
        self.maintenance_interval = interval;
    }

    /// The shared database handle.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// The registered service endpoints.
    pub fn registry(&self) -> &ServiceRegistry<C> {
        &self.registry
    }

    /// Connection-pool statistics.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Total requests handled so far.
    pub fn requests_handled(&self) -> u64 {
        self.requests_handled
    }

    /// Per-operation metrics.
    pub fn metrics(&self) -> &BTreeMap<String, OperationMetrics> {
        &self.metrics
    }

    /// The server CPU accounting (per-interval utilisation samples).
    pub fn cpu_samples(&self) -> Vec<CpuSample> {
        self.cpu.samples()
    }

    /// Rolling-average CPU samples over `window` sampling intervals.
    pub fn cpu_rolling(&self, window: usize) -> Vec<CpuSample> {
        self.cpu.rolling_samples(window)
    }

    /// Handles one external request at simulated time `now`, charging its cost
    /// to the server CPU. Returns the response together with the cost, so the
    /// caller (the event loop) can delay the reply by the service time.
    pub fn handle(
        &mut self,
        state: &mut C,
        now: SimTime,
        request: &SoapRequest,
    ) -> (SoapResponse, RequestCost) {
        self.run_maintenance_if_due(now);
        self.requests_handled += 1;

        // Connection-pool accounting: a request that finds the pool exhausted
        // still completes (the container queues it), but the exhaustion is
        // recorded and a small extra system-time penalty is charged.
        let got_connection = self.pool.try_acquire();

        let before = self.db.stats();
        let response = self.registry.dispatch_external(state, request);
        let delta = self.db.stats().delta_since(&before);

        let mut cost = self
            .cost_model
            .request_cost(request.approx_size() + response.approx_size(), &delta);
        if !got_connection {
            cost.system += SimDuration::from_millis(2);
        } else {
            self.pool.release();
        }
        cost.charge_to(&mut self.cpu, now);

        let entry = self.metrics.entry(request.operation.clone()).or_default();
        entry.requests += 1;
        if !response.is_success() {
            entry.faults += 1;
        }
        entry.total_cost = entry.total_cost.add(&cost);

        (response, cost)
    }

    /// Charges CPU work that did not flow through a request (e.g. a periodic
    /// scheduler pass driven by the event loop rather than by a message).
    pub fn charge_background(&mut self, now: SimTime, label: &str, cost: RequestCost) {
        cost.charge_to(&mut self.cpu, now);
        let entry = self.metrics.entry(format!("background:{label}")).or_default();
        entry.requests += 1;
        entry.total_cost = entry.total_cost.add(&cost);
    }

    /// Computes the cost of database work measured between two stats
    /// snapshots, without charging it (helper for background tasks).
    pub fn cost_of(&self, before: &relstore::OpStats) -> RequestCost {
        let delta = self.db.stats().delta_since(before);
        self.cost_model.request_cost(0, &delta)
    }

    fn run_maintenance_if_due(&mut self, now: SimTime) {
        if self.maintenance_interval.as_millis() == 0 {
            return;
        }
        if (now - self.last_maintenance) < self.maintenance_interval {
            return;
        }
        self.last_maintenance = now;
        // The periodic DB2-style background task: take a checkpoint. The
        // bytes written dominate the cost, producing the isolated CPU spikes
        // the paper attributes to "a DB2 background process". A busy result
        // (transactions in flight) is retried with backoff — useful when
        // other threads share the database and can commit between attempts;
        // a single-threaded simulation just pays the (wall-clock-only,
        // ~150 µs worst case) backoff and skips to the next maintenance
        // interval.
        let bytes = self
            .db
            .session()
            .with_retries(3, |s| s.database().checkpoint())
            .unwrap_or_else(|e| {
                debug_assert!(e.is_retryable(), "checkpoint failed non-retryably: {e}");
                0
            });
        let cost = RequestCost {
            user: SimDuration::from_secs_f64(bytes as f64 * 0.02e-6 + 0.05),
            system: SimDuration::from_secs_f64(0.02),
            io: SimDuration::from_secs_f64(bytes as f64 * 0.05e-6 + 0.2),
        };
        cost.charge_to(&mut self.cpu, now);
        let entry = self.metrics.entry("background:maintenance".into()).or_default();
        entry.requests += 1;
        entry.total_cost = entry.total_cost.add(&cost);
    }
}

impl<C> std::fmt::Debug for AppContainer<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppContainer")
            .field("requests_handled", &self.requests_handled)
            .field("endpoints", &self.registry.len())
            .field("pool", &self.pool_stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceKind;
    use relstore::Value;

    struct DummyState;

    fn container() -> (AppContainer<DummyState>, DummyState) {
        let db = Arc::new(Database::new());
        db.execute("CREATE TABLE jobs (job_id INT PRIMARY KEY, state TEXT)").unwrap();
        let mut registry = ServiceRegistry::new();
        let db_for_handler = Arc::clone(&db);
        registry.register(
            "submitJob",
            ServiceKind::CoarseGrained,
            "insert a job row",
            move |_state: &mut DummyState, req: &SoapRequest| {
                let id = req.int_param("job_id").unwrap_or(0);
                match db_for_handler.execute(&format!(
                    "INSERT INTO jobs (job_id, state) VALUES ({id}, 'idle')"
                )) {
                    Ok(_) => SoapResponse::ok().with("job_id", id),
                    Err(e) => SoapResponse::fault(e.to_string()),
                }
            },
        );
        let container = AppContainer::new(
            db,
            registry,
            CostModel::cas_server(),
            8,
            4,
            SimDuration::from_secs(60),
        );
        (container, DummyState)
    }

    #[test]
    fn handling_requests_charges_cpu_and_updates_metrics() {
        let (mut c, mut state) = container();
        for i in 0..10 {
            let (resp, cost) = c.handle(
                &mut state,
                SimTime::from_secs(i),
                &SoapRequest::new("submitJob").with("job_id", i as i64),
            );
            assert!(resp.is_success());
            assert_eq!(resp.field("job_id"), Value::Int(i as i64));
            assert!(cost.total().as_millis() > 0 || cost.user.as_millis() == 0);
        }
        assert_eq!(c.requests_handled(), 10);
        assert_eq!(c.database().table_len("jobs").unwrap(), 10);
        let m = c.metrics().get("submitJob").unwrap();
        assert_eq!(m.requests, 10);
        assert_eq!(m.faults, 0);
        assert!(c.cpu_samples()[0].busy() > 0.0);
        assert_eq!(c.pool_stats().acquired, 10);
        assert_eq!(c.pool_stats().exhausted, 0);
    }

    #[test]
    fn faults_are_counted() {
        let (mut c, mut state) = container();
        let (resp, _) = c.handle(
            &mut state,
            SimTime::ZERO,
            &SoapRequest::new("submitJob").with("job_id", 1i64),
        );
        assert!(resp.is_success());
        // Duplicate primary key produces a fault.
        let (resp, _) = c.handle(
            &mut state,
            SimTime::ZERO,
            &SoapRequest::new("submitJob").with("job_id", 1i64),
        );
        assert!(!resp.is_success());
        // Unknown operation also faults.
        let (resp, _) = c.handle(&mut state, SimTime::ZERO, &SoapRequest::new("nope"));
        assert!(!resp.is_success());
        let m = c.metrics().get("submitJob").unwrap();
        assert_eq!(m.faults, 1);
    }

    #[test]
    fn maintenance_runs_periodically_and_truncates_wal() {
        let (mut c, mut state) = container();
        c.set_maintenance_interval(SimDuration::from_mins(10));
        for i in 0..200 {
            c.handle(
                &mut state,
                SimTime::from_secs(i * 30),
                &SoapRequest::new("submitJob").with("job_id", i as i64),
            );
        }
        let maint = c.metrics().get("background:maintenance").cloned().unwrap();
        assert!(maint.requests >= 8, "expected several maintenance runs, got {}", maint.requests);
        assert!(c.database().stats().checkpoints >= 8);
    }

    #[test]
    fn background_charges_show_up_in_cpu() {
        let (mut c, _) = container();
        c.charge_background(
            SimTime::from_secs(30),
            "scheduler",
            RequestCost {
                user: SimDuration::from_millis(500),
                system: SimDuration::ZERO,
                io: SimDuration::ZERO,
            },
        );
        assert!(c.cpu_samples()[0].user > 0.0);
        assert!(c.metrics().contains_key("background:scheduler"));
    }
}
