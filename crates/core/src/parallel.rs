//! The data-parallel fan-out of the mining hot path.
//!
//! The top level of all five algorithms is an embarrassingly parallel loop
//! over the frequent single edges: a vertical subtree rooted at edge *i* only
//! reads the shared frequent-row table, and a horizontal pivot *i* only reads
//! the shared row snapshot — either way each task writes its own
//! [`crate::miners::RawMiningOutput`].  [`Exec`] hands those tasks to the
//! workspace's one executor, the caller-participating [`WorkerPool`]: tasks
//! are claimed off an atomic counter (task costs are heavily skewed towards
//! small indices — they see the most extensions / the largest projected
//! databases — so static chunking would idle most workers) and results are
//! returned **in task-index order**, which keeps the merged pattern list
//! identical to the sequential traversal and the whole engine deterministic
//! regardless of thread count.
//!
//! Waking helpers costs more than they save on a small mine, so a full
//! vertical-family mine hires them only when its tenant's previous full mine
//! screened at least [`HIRE_SCREENS`] candidates; a smaller one runs on its
//! caller alone ([`Exec::solo`]).  The rule reads a deterministic count that
//! is the same for every pool shape, so it moves time, never output.

use std::sync::{Arc, OnceLock};

pub use fsm_pool::WorkerPool;

/// The fewest kernel screens ([`crate::MiningStats::intersections`]) a
/// tenant's previous full mine must have made for its next full mine to
/// hire the pool's helpers; below it the mine runs on [`Exec::solo`].
///
/// A full mine by [`crate::Algorithm::Vertical`] or
/// [`crate::Algorithm::DirectVertical`] is the only mine this reads: the
/// horizontal family reports no screens, and a delta advance's re-examined
/// count predicts nothing about its per-slide work (`dense_delta`'s spreads
/// from 0 to 17 791 a slide around ≈ 27 000 border updates), so both always
/// hire.  A miner with no full mine behind it — new, recovered or thawed —
/// hires too.
///
/// The constant sits in the gap between the benchmark's gated workloads: a
/// `fleet_serial` mine makes 294–322 screens, where waking the shared
/// two-helper pool costs more than the helpers save, and a `dense_full`
/// mine 6 051–13 272, where the helpers pay.  On a 2-vCPU host
/// (`avx512-vpopcntdq` kernels), ten alternating 40 s pairs, `fleet_serial`
/// `tx_per_s` read a median 4.09 M with every mine hiring and 4.92 M with
/// small mines solo, ahead in 10 of 10; `dense_full` and `dense_delta`,
/// whose mines all hire, stayed within their spread.
/// Regenerate the screen ranges from the `core.miners.intersections_per_mine`
/// spread of `fsm-benchmark --workload <fleet_serial|dense_full> --quick
/// --trace 1`, and the pairs by alternating `fsm-benchmark --workload
/// fleet_serial --seed N` between a build with and without this rule.
pub const HIRE_SCREENS: u64 = 1_024;

/// The executor a mine call fans its top-level subtree tasks out on: a
/// cheaply clonable handle that derefs to one [`WorkerPool`]
/// ([`WorkerPool::run_indexed_stateful`] is the fan-out).
///
/// A standalone [`crate::StreamMiner`] owns a private pool sized by
/// [`crate::MinerConfig::threads`] ([`Exec::scoped`]), built once and reused
/// by every mine and every [`crate::MinerSnapshot`]; the multi-tenant
/// service shares one process-wide pool between all tenants
/// ([`Exec::pool`]).  Nothing spawns threads per mine, and output — pattern
/// lists *and* statistics — is byte-identical for every pool size,
/// including none at all (`miner_agreement` / `epoch_agreement` /
/// `tenant_isolation` / `hire_rule` pin this).  Which of the two a full mine
/// runs on — its pool or [`Exec::solo`] — is the hire rule's
/// ([`HIRE_SCREENS`]).
#[derive(Debug, Clone)]
pub struct Exec(Arc<WorkerPool>);

impl Exec {
    /// A private pool for `threads` participants: the calling thread plus
    /// `threads - 1` helpers.  `1` spawns nothing and runs every task
    /// inline on the caller; `0` means one participant per available core.
    pub fn scoped(threads: usize) -> Self {
        let participants = match threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        Self(Arc::new(match participants - 1 {
            0 => WorkerPool::inline_only(),
            helpers => WorkerPool::new(helpers),
        }))
    }

    /// Execution on a shared pool — the multi-tenant shape.
    pub fn pool(pool: Arc<WorkerPool>) -> Self {
        Self(pool)
    }

    /// The caller alone: one process-wide [`WorkerPool::inline_only`] pool,
    /// built on first use, that spawns no thread and queues no job.
    pub fn solo() -> Self {
        static SOLO: OnceLock<Arc<WorkerPool>> = OnceLock::new();
        Self(Arc::clone(
            SOLO.get_or_init(|| Arc::new(WorkerPool::inline_only())),
        ))
    }

    /// The executor a full mine runs on when its tenant's previous full
    /// mine made `last_screens` screens (`None`: no such mine): `self`, or
    /// [`Exec::solo`] below [`HIRE_SCREENS`].
    pub(crate) fn hire(&self, last_screens: Option<u64>) -> Self {
        match last_screens {
            Some(screens) if screens < HIRE_SCREENS => Self::solo(),
            _ => self.clone(),
        }
    }
}

impl std::ops::Deref for Exec {
    type Target = WorkerPool;

    fn deref(&self) -> &WorkerPool {
        &self.0
    }
}

/// Every pool shape the unit tests sweep for byte-identity: no helpers at
/// all, then 1, 2, 3 and 7 helpers, then one participant per core.
#[cfg(test)]
pub(crate) fn pool_shapes() -> Vec<Exec> {
    let mut shapes = vec![Exec::pool(Arc::new(WorkerPool::inline_only()))];
    shapes.extend([1, 2, 3, 7].map(|helpers| Exec::pool(Arc::new(WorkerPool::new(helpers)))));
    shapes.push(Exec::scoped(0));
    shapes
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn results_come_back_in_index_order() {
        for exec in pool_shapes() {
            let results = exec.run_indexed_stateful(37, || (), |(), i| i * i);
            assert_eq!(results, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_and_tiny_task_counts_are_safe() {
        for exec in pool_shapes() {
            assert!(exec.run_indexed_stateful(0, || (), |(), i| i).is_empty());
            assert_eq!(exec.run_indexed_stateful(1, || (), |(), i| i), vec![0]);
        }
    }

    #[test]
    fn scoped_sizes_a_private_pool_counting_the_caller() {
        assert_eq!(Exec::scoped(1).size(), 0, "sequential spawns nothing");
        assert_eq!(Exec::scoped(2).size(), 1);
        assert_eq!(Exec::scoped(4).size(), 3);
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(Exec::scoped(0).size(), cores - 1, "auto = one per core");
    }

    #[test]
    fn small_history_mines_solo_and_every_other_hires() {
        let exec = Exec::pool(Arc::new(WorkerPool::new(2)));
        for last in [None, Some(HIRE_SCREENS), Some(u64::MAX)] {
            assert_eq!(exec.hire(last).size(), 2, "{last:?} hires");
        }
        for last in [Some(0), Some(HIRE_SCREENS - 1)] {
            assert_eq!(exec.hire(last).size(), 0, "{last:?} mines solo");
        }
        assert!(
            Arc::ptr_eq(&Exec::solo().0, &Exec::solo().0),
            "one solo pool"
        );
    }

    #[test]
    fn stateful_variant_reuses_one_state_per_worker() {
        let inits = AtomicUsize::new(0);
        let results = Exec::scoped(1).run_indexed_stateful(
            20,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0usize
            },
            |state, index| {
                *state += 1;
                (*state, index)
            },
        );
        // One participant: one state serves every task and counts them all.
        assert_eq!(inits.load(Ordering::Relaxed), 1);
        assert_eq!(results.last(), Some(&(20, 19)));
        // Four participants: at most one state each.
        let inits = AtomicUsize::new(0);
        Exec::scoped(4).run_indexed_stateful(
            20,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
            },
            |(), _| (),
        );
        assert!(inits.load(Ordering::Relaxed) <= 4);
    }

    #[test]
    fn exec_variants_agree_with_each_other() {
        let expected: Vec<usize> = (0..53).map(|i| i * 7 + 1).collect();
        for exec in pool_shapes()
            .into_iter()
            .chain([Exec::scoped(1), Exec::scoped(4)])
        {
            let results = exec.run_indexed_stateful(53, || (), |(), i| i * 7 + 1);
            assert_eq!(results, expected, "executor {exec:?} diverged");
        }
    }

    #[test]
    fn work_is_shared_between_workers() {
        let seen: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        let results = Exec::scoped(4).run_indexed_stateful(
            64,
            || (),
            |(), i| {
                // Make tasks slow enough that several workers participate.
                std::thread::sleep(std::time::Duration::from_micros(200));
                seen.lock().unwrap().insert(std::thread::current().id());
                i
            },
        );
        assert_eq!(results.len(), 64);
        let seen = seen.lock().unwrap().len();
        assert!((2..=4).contains(&seen), "{seen} threads ran tasks");
    }
}
