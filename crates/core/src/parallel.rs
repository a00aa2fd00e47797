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

use std::sync::Arc;

pub use fsm_pool::WorkerPool;

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
/// `tenant_isolation` pin this).
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
