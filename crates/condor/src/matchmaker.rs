//! The collector and negotiator: Condor's centralised matchmaking pair.
//!
//! The collector is an in-memory repository of machine and job-queue status
//! that submit and execute machines refresh periodically; it keeps no
//! transactional or recovery state and simply rebuilds itself from updates
//! after a restart. The negotiator periodically pulls that information and
//! allocates execute slots to schedds. Matchmaking stops entirely while either
//! daemon is down and resumes when both are back — exactly the behaviour the
//! paper describes — which the failure-injection tests exercise.

use cluster_sim::{SimTime, VmId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The machine states the collector tracks for each execute slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SlotState {
    /// Unclaimed and willing to run jobs.
    Unclaimed,
    /// Claimed by a schedd (may or may not be running a job yet).
    Claimed,
    /// Currently executing a job.
    Busy,
}

/// One slot's entry in the collector.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotAd {
    /// Current state.
    pub state: SlotState,
    /// Time of the last status update received.
    pub last_update: SimTime,
}

/// One schedd's queue summary in the collector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScheddSummary {
    /// Jobs waiting to run.
    pub idle_jobs: usize,
    /// Jobs currently executing.
    pub running_jobs: usize,
    /// Time of the last summary received.
    pub last_update: SimTime,
}

/// The collector daemon: a purely in-memory information repository.
#[derive(Debug, Default)]
pub struct Collector {
    slots: BTreeMap<VmId, SlotAd>,
    schedds: BTreeMap<usize, ScheddSummary>,
    updates_received: u64,
    /// When the daemon is down it discards updates and serves no queries.
    down: bool,
}

impl Collector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Collector::default()
    }

    /// Handles a periodic status update from a startd.
    pub fn update_slot(&mut self, now: SimTime, vm: VmId, state: SlotState) {
        if self.down {
            return;
        }
        self.updates_received += 1;
        self.slots.insert(
            vm,
            SlotAd {
                state,
                last_update: now,
            },
        );
    }

    /// Handles a periodic job-queue summary from a schedd.
    pub fn update_schedd(&mut self, now: SimTime, schedd: usize, idle: usize, running: usize) {
        if self.down {
            return;
        }
        self.updates_received += 1;
        self.schedds.insert(
            schedd,
            ScheddSummary {
                idle_jobs: idle,
                running_jobs: running,
                last_update: now,
            },
        );
    }

    /// Unclaimed slots known to the collector, in id order.
    pub fn unclaimed_slots(&self) -> Vec<(VmId, &SlotAd)> {
        self.slots
            .iter()
            .filter(|(_, s)| s.state == SlotState::Unclaimed)
            .map(|(vm, s)| (*vm, s))
            .collect()
    }

    /// Total updates ever absorbed (a proxy for collector message load).
    pub fn updates_received(&self) -> u64 {
        self.updates_received
    }

    /// Takes the daemon down. All state is lost (it was in memory only).
    pub fn fail(&mut self) {
        self.down = true;
        self.slots.clear();
        self.schedds.clear();
    }

    /// Restarts the daemon; state rebuilds as updates arrive.
    pub fn restart(&mut self) {
        self.down = false;
    }

    /// True when the daemon is running.
    pub fn is_up(&self) -> bool {
        !self.down
    }
}

/// One allocation decision: give a slot to a schedd.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Allocation {
    /// The receiving schedd.
    pub schedd: usize,
    /// The allocated slot.
    pub vm: VmId,
}

/// The negotiator daemon.
#[derive(Debug, Default)]
pub struct Negotiator {
    cycles: u64,
    down: bool,
}

impl Negotiator {
    /// Creates the negotiator.
    pub fn new() -> Self {
        Negotiator::default()
    }

    /// Number of negotiation cycles run.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Takes the daemon down; matchmaking stops until restart.
    pub fn fail(&mut self) {
        self.down = true;
    }

    /// Restarts the daemon.
    pub fn restart(&mut self) {
        self.down = false;
    }

    /// Runs one negotiation cycle.
    ///
    /// `demands` describes each schedd as `(idle_jobs, currently_claimed,
    /// claim_limit)`. Free slots are taken from the collector in id order;
    /// every job in the paper's experiments fits every slot, so any free slot
    /// serves any schedd.
    ///
    /// The allocation policy reproduces the behaviour behind Figure 15: the
    /// negotiator serves schedds in priority (index) order and gives the first
    /// schedd with idle jobs as many slots as it may claim before moving on.
    /// When a per-schedd claim limit is configured (Figure 16), that limit
    /// caps each schedd's share and the remaining slots flow to the next one.
    pub fn negotiate(
        &mut self,
        collector: &Collector,
        demands: &[(usize, usize, Option<usize>)],
    ) -> Vec<Allocation> {
        if self.down || !collector.is_up() {
            return Vec::new();
        }
        self.cycles += 1;
        let mut free = collector.unclaimed_slots();
        let mut out = Vec::new();
        for (schedd_idx, &(idle, claimed, limit)) in demands.iter().enumerate() {
            if idle == 0 || free.is_empty() {
                continue;
            }
            let want = match limit {
                Some(l) => l.saturating_sub(claimed).min(idle),
                None => idle,
            };
            if want == 0 {
                continue;
            }
            let granted = want.min(free.len());
            out.extend(free.drain(..granted).map(|(vm, _)| Allocation {
                schedd: schedd_idx,
                vm,
            }));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Collector {
        fn schedd_summary(&self, schedd: usize) -> Option<ScheddSummary> {
            self.schedds.get(&schedd).copied()
        }

        fn known_slots(&self) -> usize {
            self.slots.len()
        }
    }

    fn collector_with_slots(n: u32) -> Collector {
        let mut c = Collector::new();
        for i in 0..n {
            c.update_slot(SimTime::ZERO, VmId(i), SlotState::Unclaimed);
        }
        c
    }

    #[test]
    fn collector_tracks_slots_and_schedds() {
        let mut c = collector_with_slots(3);
        c.update_slot(SimTime::from_secs(5), VmId(1), SlotState::Busy);
        c.update_schedd(SimTime::from_secs(5), 0, 10, 2);
        assert_eq!(c.known_slots(), 3);
        assert_eq!(c.unclaimed_slots().len(), 2);
        assert_eq!(c.schedd_summary(0).unwrap().idle_jobs, 10);
        assert!(c.schedd_summary(1).is_none());
        assert_eq!(c.updates_received(), 5);
    }

    #[test]
    fn collector_failure_loses_state_and_rebuilds() {
        let mut c = collector_with_slots(3);
        c.fail();
        assert!(!c.is_up());
        // Updates while down are dropped.
        c.update_slot(SimTime::from_secs(1), VmId(9), SlotState::Unclaimed);
        assert_eq!(c.known_slots(), 0);
        c.restart();
        c.update_slot(SimTime::from_secs(2), VmId(9), SlotState::Unclaimed);
        assert_eq!(c.known_slots(), 1);
    }

    #[test]
    fn unlimited_negotiation_gives_everything_to_first_demanding_schedd() {
        let c = collector_with_slots(6);
        let mut n = Negotiator::new();
        let allocs = n.negotiate(
            &c,
            &[(10, 0, None), (10, 0, None)],
        );
        assert_eq!(allocs.len(), 6);
        assert!(allocs.iter().all(|a| a.schedd == 0));
        assert_eq!(n.cycles(), 1);
    }

    #[test]
    fn claim_limit_spreads_slots_across_schedds() {
        let c = collector_with_slots(6);
        let mut n = Negotiator::new();
        let allocs = n.negotiate(
            &c,
            &[(10, 0, Some(2)), (10, 0, Some(2)), (10, 0, Some(2))],
        );
        assert_eq!(allocs.len(), 6);
        for s in 0..3 {
            assert_eq!(allocs.iter().filter(|a| a.schedd == s).count(), 2);
        }
    }

    #[test]
    fn idle_job_count_bounds_allocations() {
        let c = collector_with_slots(6);
        let mut n = Negotiator::new();
        let allocs = n.negotiate(&c, &[(2, 0, None)]);
        assert_eq!(allocs.len(), 2);
        let allocs = n.negotiate(&c, &[(0, 0, None)]);
        assert!(allocs.is_empty());
    }

    #[test]
    fn matchmaking_requires_both_daemons_up() {
        let mut c = collector_with_slots(2);
        let mut n = Negotiator::new();
        n.fail();
        assert!(n
            .negotiate(&c, &[(5, 0, None)])
            .is_empty());
        n.restart();
        c.fail();
        assert!(n
            .negotiate(&c, &[(5, 0, None)])
            .is_empty());
        c.restart();
        // Collector lost its state; it must hear from the startds again first.
        assert!(n
            .negotiate(&c, &[(5, 0, None)])
            .is_empty());
        c.update_slot(SimTime::from_secs(60), VmId(0), SlotState::Unclaimed);
        assert_eq!(n.negotiate(&c, &[(5, 0, None)]).len(), 1);
    }
}
