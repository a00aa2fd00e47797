//! Process-wide chunk-cache budget arbitration for multi-tenant deployments.
//!
//! A single-tenant process sizes its decoded-chunk cache with one knob
//! ([`crate::SegmentedWindowStore::set_cache_budget`]).  A service hosting
//! many tenants cannot hand every matrix that knob independently — the sum
//! of per-tenant budgets, not any one of them, is what the box actually
//! spends.  The [`BudgetGovernor`] owns that sum: each matrix registers for
//! a [`BudgetLease`] and periodically *requests* the budget it would like;
//! the governor grants what the process-wide cap and fairness allow, and the
//! matrix applies the grant to its own cache.
//!
//! # Granting policy
//!
//! For a cap of `T` bytes shared by `n` registered members, a request is
//! granted `min(desired, max(T - other_grants, T / n))`:
//!
//! * While the cap has headroom, members get what they ask for — a lone hot
//!   tenant may use the whole cap.
//! * Under contention a requester is never starved below its **fair share**
//!   `⌊T / n⌋`, even if earlier grants already consumed the cap — so the sum
//!   of grants may transiently exceed `T`.  For a fixed membership of `n` it
//!   never exceeds `T + (n − 1)·⌊T / n⌋`: one fair share per member granted
//!   after the cap was exhausted.  (By induction over requests every
//!   `k`-subset of members holds at most `T + (k − 1)·⌊T / n⌋`: a request
//!   either fits the headroom, leaving any subset containing the requester
//!   at `T` or less, or is clamped to one fair share on top of a
//!   `(k − 1)`-subset.  The bound is met: `T = 900`, `n = 3` passes through
//!   900 + 300 + 300.)
//! * Convergence is cooperative — every member re-requests at its next
//!   ingest/view boundary, and those re-requests are clamped by the same
//!   rule, shrinking the over-shares: once every member has re-requested,
//!   in any order, at an unchanged or lower desire, the sum is at most `T`
//!   again.  (A re-request that fits the headroom leaves the sum at `T` or
//!   less; any later one in the round is clamped to a fair share its member
//!   already held, so it cannot raise the sum.)  The governor never reaches
//!   into a member's cache: a shrunken grant is applied — and evicts — on
//!   the member's own thread, at that boundary.
//!
//! Leases release their grant on drop, so a departing tenant's share flows
//! back to the survivors at their next request.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Process-wide cache-budget arbiter; see the [module docs](self).
///
/// Cheap to share: all state sits behind one mutex that is only touched at
/// registration and at ingest/view boundaries, never per row read.
pub struct BudgetGovernor {
    inner: Mutex<GovernorState>,
}

#[derive(Debug)]
struct GovernorState {
    total: usize,
    next_id: u64,
    members: BTreeMap<u64, Member>,
}

#[derive(Debug, Default, Clone, Copy)]
struct Member {
    desired: usize,
    granted: usize,
}

impl BudgetGovernor {
    /// Creates a governor enforcing a process-wide cap of `total_bytes`
    /// across all leases (`0` grants nobody anything — every member's cache
    /// is disabled, the paper's strictest space posture).
    pub fn new(total_bytes: usize) -> Arc<Self> {
        Arc::new(Self {
            inner: Mutex::new(GovernorState {
                total: total_bytes,
                next_id: 0,
                members: BTreeMap::new(),
            }),
        })
    }

    /// The process-wide cap in bytes.
    pub fn total_bytes(&self) -> usize {
        self.lock().total
    }

    /// Number of currently registered leases.
    pub fn members(&self) -> usize {
        self.lock().members.len()
    }

    /// Sum of currently granted bytes across all leases.  May transiently
    /// exceed [`BudgetGovernor::total_bytes`] under contention, by at most
    /// one fair share per member but one (see the module docs); back at or
    /// below it once every member has re-requested.
    pub fn granted_bytes(&self) -> usize {
        self.lock()
            .members
            .values()
            .fold(0usize, |acc, m| acc.saturating_add(m.granted))
    }

    /// Registers a new member with no desired budget yet; call
    /// [`BudgetLease::request`] to obtain a grant.
    pub fn register(self: &Arc<Self>) -> BudgetLease {
        let id = {
            let mut state = self.lock();
            let id = state.next_id;
            state.next_id += 1;
            state.members.insert(id, Member::default());
            id
        };
        BudgetLease {
            governor: Arc::clone(self),
            id,
        }
    }

    fn request(&self, id: u64, desired: usize) -> usize {
        let mut state = self.lock();
        let total = state.total;
        let members = state.members.len().max(1);
        let fair = total / members;
        let other_granted: usize = state
            .members
            .iter()
            .filter(|(mid, _)| **mid != id)
            .fold(0usize, |acc, (_, m)| acc.saturating_add(m.granted));
        let headroom = total.saturating_sub(other_granted);
        let grant = desired.min(headroom.max(fair));
        if let Some(member) = state.members.get_mut(&id) {
            member.desired = desired;
            member.granted = grant;
        }
        grant
    }

    fn release(&self, id: u64) {
        self.lock().members.remove(&id);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, GovernorState> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }
}

impl std::fmt::Debug for BudgetGovernor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.lock();
        f.debug_struct("BudgetGovernor")
            .field("total", &state.total)
            .field("members", &state.members.len())
            .finish()
    }
}

/// One member's handle on a [`BudgetGovernor`]; dropping it returns the
/// member's grant to the pool.
#[derive(Debug)]
pub struct BudgetLease {
    governor: Arc<BudgetGovernor>,
    id: u64,
}

impl BudgetLease {
    /// Declares this member's desired budget and returns the granted bytes
    /// under the cap-and-fairness rule (see the [module docs](self)).  Call
    /// again at natural boundaries — grants change as members come, go and
    /// re-request.
    pub fn request(&self, desired: usize) -> usize {
        self.governor.request(self.id, desired)
    }

    /// The governor this lease draws from.
    pub fn governor(&self) -> &Arc<BudgetGovernor> {
        &self.governor
    }
}

impl Drop for BudgetLease {
    fn drop(&mut self) {
        self.governor.release(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn lone_member_gets_the_whole_cap() {
        let gov = BudgetGovernor::new(1000);
        let lease = gov.register();
        assert_eq!(lease.request(600), 600);
        assert_eq!(lease.request(5000), 1000);
        assert_eq!(gov.granted_bytes(), 1000);
    }

    #[test]
    fn contended_members_converge_to_fair_shares() {
        let gov = BudgetGovernor::new(1000);
        let a = gov.register();
        let b = gov.register();
        // A grabs everything first; B still gets its fair share.
        assert_eq!(a.request(usize::MAX), 1000);
        assert_eq!(b.request(usize::MAX), 500);
        // A's next request is clamped by B's grant: the overshoot drains.
        assert_eq!(a.request(usize::MAX), 500);
        assert_eq!(gov.granted_bytes(), 1000);
    }

    #[test]
    fn modest_requests_are_granted_in_full() {
        let gov = BudgetGovernor::new(1000);
        let a = gov.register();
        let b = gov.register();
        assert_eq!(a.request(200), 200);
        assert_eq!(b.request(700), 700);
        assert_eq!(gov.granted_bytes(), 900);
    }

    #[test]
    fn dropping_a_lease_returns_its_grant() {
        let gov = BudgetGovernor::new(1000);
        let a = gov.register();
        let b = gov.register();
        assert_eq!(a.request(usize::MAX), 1000);
        assert_eq!(b.request(usize::MAX), 500);
        drop(a);
        assert_eq!(gov.members(), 1);
        assert_eq!(b.request(usize::MAX), 1000);
    }

    #[test]
    fn zero_cap_grants_nothing() {
        let gov = BudgetGovernor::new(0);
        let lease = gov.register();
        assert_eq!(lease.request(usize::MAX), 0);
    }

    #[test]
    fn fairness_holds_for_many_members() {
        let gov = BudgetGovernor::new(900);
        let leases: Vec<_> = (0..3).map(|_| gov.register()).collect();
        assert_eq!(leases[0].request(usize::MAX), 900);
        // Latecomers each still receive total / n.
        assert_eq!(leases[1].request(usize::MAX), 300);
        assert_eq!(leases[2].request(usize::MAX), 300);
        // The stated bound, met: T + (n - 1) * (T / n), two fair shares over
        // the cap with a single over-granted member.
        assert_eq!(gov.granted_bytes(), 1500);
        // One cooperative round later everyone holds exactly a fair share.
        for lease in &leases {
            assert_eq!(lease.request(usize::MAX), 300);
        }
        assert_eq!(gov.granted_bytes(), 900);
    }

    proptest! {
        /// Both halves of the module docs' bound, over arbitrary request
        /// sequences against a fixed membership: the sum of grants never
        /// exceeds `T + (n - 1) * (T / n)`, and one round of re-requests at
        /// unchanged or lower desires, in any order, brings it back to at
        /// most `T`.  (Desires range past `T`: asking for more than the
        /// whole cap is how a hot tenant asks.)
        #[test]
        fn grants_stay_within_the_stated_bounds(
            total in 0usize..4096,
            members in 1usize..7,
            requests in proptest::collection::vec((0usize..6, 0usize..8192), 0..48),
            round in proptest::collection::vec((any::<u64>(), 0usize..8192), 6),
        ) {
            let gov = BudgetGovernor::new(total);
            let leases: Vec<_> = (0..members).map(|_| gov.register()).collect();
            let fair = total / members;
            let mut desires = vec![0usize; members];
            for (member, desired) in requests {
                let member = member % members;
                desires[member] = desired;
                let grant = leases[member].request(desired);
                prop_assert!(grant <= desired.min(total));
                prop_assert!(gov.granted_bytes() <= total + (members - 1) * fair);
            }
            let mut order: Vec<usize> = (0..members).collect();
            order.sort_by_key(|&member| round[member].0);
            for member in order {
                leases[member].request(desires[member].min(round[member].1));
            }
            prop_assert!(gov.granted_bytes() <= total);
        }
    }
}
