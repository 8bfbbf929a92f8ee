//! Per-statement resource governance: deadlines, cooperative cancellation
//! and row/byte budgets.
//!
//! The paper's engine must stay up and fair while serving thousands of
//! machines: a runaway `SELECT` may not pin a catalog guard or a worker
//! thread indefinitely, and a huge result set may not exhaust server memory.
//! [`Governance`] declares the limits a caller wants for its statements;
//! [`Governor`] is the armed, per-statement state the executor consults:
//!
//! * **Deadline / cancellation** — scan, filter, join, aggregate and batch
//!   loops call [`Governor::tick`] once per row processed. Every
//!   `check_interval` rows (default [`DEFAULT_CHECK_INTERVAL`]) the governor
//!   consults the clock and the optional cancellation token and bails with a
//!   statement-deadline [`Error::Timeout`] (class `Logic`) — so a statement
//!   never exceeds its deadline by more than one check interval of work.
//! * **Budgets** — [`Governor::charge_row`] is called once per row a
//!   statement *produces*: each row kept from a join input, each tuple a
//!   join step emits, each result row, before any response page is built.
//!   An aggregate's result rows are its groups, each charged as it opens
//!   at the size of its key values, so a GROUP BY trips a budget while it
//!   groups.
//!   The executor passes references between its operators and allocates
//!   only what it returns, so a charge is not an allocation: a join tuple
//!   is charged at [`approx_tuple_bytes`], the size its values would have
//!   as one row. The budget thus bounds the work a statement may fan out
//!   into, the same for a cross product feeding `COUNT(*)` as for one
//!   being returned. Exceeding `max_rows` or `max_bytes` cancels the
//!   statement with [`Error::ResourceExhausted`].
//! * **Disarmed cost** — when no limit is set the governor is disarmed and
//!   both entry points reduce to a single predictable branch, keeping the
//!   prepared-point-select hot path unaffected (proven by the
//!   `governance_overhead` bench).
//!
//! Lock waiting is governed here too: [`Governance::lock_wait`] bounds how
//! long a write statement waits for a conflicted table lock before giving up
//! with a retryable lock-wait [`Error::Timeout`] (see
//! [`Database`](crate::db::Database)).

use crate::error::{Error, Result};
use crate::tuple::Row;
use crate::value::Value;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default number of rows processed between deadline/cancellation checks.
///
/// The interval bounds both the disarmed overhead (one branch per row) and
/// the cancellation latency (one clock read per interval; a statement can
/// overshoot its deadline by at most one interval of row work).
pub const DEFAULT_CHECK_INTERVAL: u32 = 1024;

/// Declarative per-statement limits. `Default` (and [`Governance::NONE`])
/// sets no limit at all — the zero-overhead configuration.
///
/// A `Governance` belongs to a [`Session`](crate::Session) (a wire
/// connection holds one and sets it per request); a fresh [`Governor`] is
/// armed from it for every statement.
#[derive(Debug, Clone, Default)]
pub struct Governance {
    /// Wall-clock budget for one statement. Expiry surfaces a
    /// statement-deadline [`Error::Timeout`] (class `Logic`).
    pub deadline: Option<Duration>,
    /// Maximum rows one statement may produce (join inputs kept, join
    /// tuples and result rows; see [`Governor::charge_row`]).
    pub max_rows: Option<u64>,
    /// Maximum approximate bytes of the rows one statement produces.
    pub max_bytes: Option<u64>,
    /// Bound on how long a write statement waits for a conflicted table
    /// lock before failing with a retryable lock-wait [`Error::Timeout`].
    /// `None` (like `Some(Duration::ZERO)`) does not wait: a conflict fails
    /// fast with [`Error::LockConflict`](crate::Error::LockConflict).
    pub lock_wait: Option<Duration>,
    /// Cooperative cancellation token: set it from any thread and the
    /// statement bails at its next row-check boundary.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Rows between deadline/cancellation checks; `None` means
    /// `DEFAULT_CHECK_INTERVAL`. Tests use small intervals to exercise
    /// every check boundary.
    pub check_interval: Option<u32>,
}

impl Governance {
    /// The no-limits configuration every session starts with.
    pub const NONE: Governance = Governance {
        deadline: None,
        max_rows: None,
        max_bytes: None,
        lock_wait: None,
        cancel: None,
        check_interval: None,
    };

    /// True when no statement-scoped limit is set (lock-wait bounds are
    /// enforced at the lock table, not by the armed governor).
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.max_rows.is_none()
            && self.max_bytes.is_none()
            && self.cancel.is_none()
    }
}

/// Armed, running cancellation/budget state for a single statement.
///
/// Obtained from [`Governor::arm`]; threaded by the database through every
/// executor loop for the statement's duration.
#[derive(Debug)]
pub struct Governor {
    armed: bool,
    countdown: u32,
    interval: u32,
    deadline: Option<Instant>,
    cancel: Option<Arc<AtomicBool>>,
    max_rows: u64,
    max_bytes: u64,
    rows: u64,
    bytes: u64,
}

impl Governor {
    /// A disarmed governor: every check is a single false branch.
    pub fn disarmed() -> Governor {
        Governor {
            armed: false,
            countdown: u32::MAX,
            interval: u32::MAX,
            deadline: None,
            cancel: None,
            max_rows: u64::MAX,
            max_bytes: u64::MAX,
            rows: 0,
            bytes: 0,
        }
    }

    /// Arms a governor for one statement: the deadline clock starts now.
    pub fn arm(gov: &Governance) -> Governor {
        if gov.is_unlimited() {
            return Governor::disarmed();
        }
        let interval = gov.check_interval.unwrap_or(DEFAULT_CHECK_INTERVAL).max(1);
        Governor {
            armed: true,
            countdown: interval,
            interval,
            deadline: gov.deadline.map(|d| Instant::now() + d),
            cancel: gov.cancel.clone(),
            max_rows: gov.max_rows.unwrap_or(u64::MAX),
            max_bytes: gov.max_bytes.unwrap_or(u64::MAX),
            rows: 0,
            bytes: 0,
        }
    }

    /// True when some limit is armed (lets callers skip work — e.g. row
    /// sizing — that only matters to an armed governor).
    #[inline]
    pub fn armed(&self) -> bool {
        self.armed
    }

    /// The cancellation point: called once per row processed by scan,
    /// filter, join, aggregate and batch loops. Consults the clock and the
    /// cancellation token every `check_interval` calls; disarmed it is one
    /// branch.
    #[inline]
    pub fn tick(&mut self) -> Result<()> {
        if !self.armed {
            return Ok(());
        }
        self.countdown -= 1;
        if self.countdown == 0 {
            self.countdown = self.interval;
            self.check_now()
        } else {
            Ok(())
        }
    }

    /// Forces a deadline/cancellation check regardless of the countdown —
    /// used at phase boundaries (before a sort, between batch items).
    pub fn check_now(&mut self) -> Result<()> {
        if let Some(cancel) = &self.cancel {
            if cancel.load(Ordering::Relaxed) {
                return Err(Error::statement_timeout("statement cancelled by caller"));
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(Error::statement_timeout(
                    "statement deadline expired mid-execution",
                ));
            }
        }
        Ok(())
    }

    /// Charges one produced row — a kept input row, a join tuple, a result
    /// row — against the budgets. `size` is only evaluated when armed, so
    /// the disarmed path never sizes rows.
    #[inline]
    pub fn charge_row(&mut self, size: impl FnOnce() -> u64) -> Result<()> {
        if !self.armed {
            return Ok(());
        }
        self.rows += 1;
        if self.rows > self.max_rows {
            // A statement that is over-budget and past its deadline reports
            // the deadline — budget errors must not mask an expired clock
            // just because a streaming path charges rows as it scans.
            self.check_now()?;
            return Err(Error::resource_exhausted(format!(
                "statement materialized more than {} rows",
                self.max_rows
            )));
        }
        self.bytes = self.bytes.saturating_add(size());
        if self.bytes > self.max_bytes {
            self.check_now()?;
            return Err(Error::resource_exhausted(format!(
                "statement result exceeds {} bytes",
                self.max_bytes
            )));
        }
        Ok(())
    }

    /// The remaining time before this governor's deadline, if one is armed.
    /// `Some(Duration::ZERO)` when already past due.
    pub fn time_left(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }
}

/// Approximate in-memory size of a result row, used for `max_bytes`
/// accounting: the per-row overhead plus each value's payload.
pub fn approx_row_bytes(row: &Row) -> u64 {
    approx_tuple_bytes(&[row])
}

/// [`approx_row_bytes`] of the row a join tuple stands for — the
/// concatenation of its parts' values — sized without building it.
pub fn approx_tuple_bytes(tuple: &[&Row]) -> u64 {
    approx_values_bytes(tuple.iter().flat_map(|row| &row.values))
}

/// [`approx_row_bytes`] of a row holding `values`, sized without building
/// it: an aggregate group is charged at its key values.
pub(crate) fn approx_values_bytes<'v>(values: impl IntoIterator<Item = &'v Value>) -> u64 {
    let mut bytes = std::mem::size_of::<Row>() as u64;
    for value in values {
        bytes += std::mem::size_of::<Value>() as u64;
        if let Value::Text(s) = value {
            bytes += s.len() as u64;
        }
    }
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ErrorClass;

    #[test]
    fn disarmed_governor_never_trips() {
        let mut g = Governor::arm(&Governance::NONE);
        assert!(!g.armed());
        for _ in 0..100_000 {
            g.tick().unwrap();
        }
        g.charge_row(|| u64::MAX).unwrap();
        assert_eq!(g.time_left(), None);
    }

    #[test]
    fn expired_deadline_trips_at_the_check_boundary() {
        let mut g = Governor::arm(&Governance {
            deadline: Some(Duration::ZERO),
            check_interval: Some(4),
            ..Governance::default()
        });
        // The first three ticks are between check boundaries and succeed.
        for _ in 0..3 {
            g.tick().unwrap();
        }
        let err = g.tick().unwrap_err();
        assert!(matches!(err, Error::Timeout { .. }), "{err}");
        assert_eq!(err.class(), ErrorClass::Logic);
    }

    #[test]
    fn cancellation_token_trips_cooperatively() {
        let cancel = Arc::new(AtomicBool::new(false));
        let mut g = Governor::arm(&Governance {
            cancel: Some(Arc::clone(&cancel)),
            check_interval: Some(1),
            ..Governance::default()
        });
        g.tick().unwrap();
        cancel.store(true, Ordering::Relaxed);
        assert!(g.tick().is_err());
    }

    #[test]
    fn row_budget_trips_exactly_past_the_cap() {
        let mut g = Governor::arm(&Governance {
            max_rows: Some(3),
            ..Governance::default()
        });
        for _ in 0..3 {
            g.charge_row(|| 1).unwrap();
        }
        let err = g.charge_row(|| 1).unwrap_err();
        assert!(matches!(err, Error::ResourceExhausted(_)), "{err}");
        assert_eq!(err.class(), ErrorClass::Logic);
    }

    #[test]
    fn byte_budget_counts_approximate_row_sizes() {
        let row = Row::new(vec![Value::Int(1), Value::Text("hello".into())]);
        let size = approx_row_bytes(&row);
        assert!(size > 5, "payload plus overhead: {size}");
        let mut g = Governor::arm(&Governance {
            max_bytes: Some(size),
            ..Governance::default()
        });
        g.charge_row(|| size).unwrap();
        assert!(g.charge_row(|| size).is_err());
    }

    #[test]
    fn time_left_saturates_at_zero() {
        let g = Governor::arm(&Governance {
            deadline: Some(Duration::ZERO),
            ..Governance::default()
        });
        assert_eq!(g.time_left(), Some(Duration::ZERO));
        let g = Governor::arm(&Governance {
            deadline: Some(Duration::from_secs(3600)),
            ..Governance::default()
        });
        assert!(g.time_left().unwrap() > Duration::from_secs(3000));
    }
}
