//! The data-parallel fan-out of the mining hot path.
//!
//! The top level of all five algorithms is an embarrassingly parallel loop
//! over the frequent single edges: a vertical subtree rooted at edge *i* only
//! reads the shared frequent-row table, and a horizontal pivot *i* only reads
//! the shared row snapshot.  [`Exec`] hands those tasks to the workspace's
//! one executor, the caller-participating [`WorkerPool`]: tasks are claimed
//! off an atomic counter (task costs are heavily skewed towards small
//! indices — they see the most extensions / the largest projected databases
//! — so static chunking would idle most workers).
//!
//! The output is the participants', not the tasks': each participant
//! appends everything the tasks it claims produce to its own `init()` state
//! — for a full mine one pattern list, the task boundaries in it, its
//! statistics and its first failure — and the pool hands the states back.
//! A participant claims indices in increasing order, so the caller merges
//! the states **in task-index order** by moving each task's range into
//! place (`miners::fan_out_roots`; with one participant there is nothing
//! to move).  That keeps the merged pattern list identical to the
//! sequential traversal, and the whole engine deterministic regardless of
//! thread count, with nothing allocated or locked per task.
//!
//! Waking helpers costs more than they save on a small mine, so a full
//! vertical-family mine hires them only when its own first level screens at
//! least [`HIRE_SCREENS`] candidates; a smaller one runs on its caller alone
//! ([`Exec::solo`]).  The rule reads a deterministic count of the window
//! being mined that is the same for every pool shape, so it moves time,
//! never output.

use std::sync::{Arc, OnceLock};

pub use fsm_pool::WorkerPool;

/// The fewest first-level screens a full mine must make to hire the pool's
/// helpers; below it the mine runs on [`Exec::solo`].
///
/// The first level is what the fan-out's roots screen at depth 1, counted
/// from the window's singleton supports and the catalog before the mine
/// starts (`miners::hire`): `k(k − 1) / 2` for [`crate::Algorithm::Vertical`]
/// over `k` frequent singletons, and for [`crate::Algorithm::DirectVertical`]
/// the sum over its frequent roots of their frequent catalog neighbours above
/// the root; 0 when the limits stop at length 1.  The count stops once it
/// reaches this constant.  A full mine by one of those two algorithms is the
/// only mine this decides: the horizontal family screens no candidates, and
/// a delta advance's work is its border updates (`dense_delta`'s re-examined
/// count spreads from 0 to 17 791 a slide around ≈ 27 000 border updates),
/// so both always hire.
///
/// The constant sits in the gap between the benchmark's gated workloads: a
/// `fleet_serial` mine makes 256–273 first-level screens (57–59 roots,
/// 295–322 screens in all), where waking the shared two-helper pool costs
/// more than the helpers save, and a `dense_full` mine 1 872 on every window
/// (130 roots, 6 051–13 272 in all), where the helpers pay.  Every
/// direct-vertical mine of the paper runner makes 0–282.  On a 2-vCPU host
/// (`avx512-vpopcntdq` kernels), ten alternating 40 s pairs, `fleet_serial`
/// `tx_per_s` read a median 4.09 M with every mine hiring and 4.92 M with
/// all but each tenant's first mine solo, ahead in 10 of 10; `dense_full` and `dense_delta`, whose
/// mines all hire, stayed within their spread.  Counting costs 2.1 µs p50
/// per `fleet_serial` mine and 1.4 µs per `dense_full` mine on that host.
/// Regenerate the first-level ranges and the count's cost by printing and
/// timing the count in `miners::hire` on a copy, under `fsm-benchmark
/// --workload <fleet_serial|dense_full> --quick`; the totals are the
/// `core.miners.intersections_per_mine` spread of the same runs with
/// `--trace 1`.
pub const HIRE_SCREENS: u64 = 1_024;

/// The executor a mine call fans its top-level subtree tasks out on: a
/// cheaply clonable handle that derefs to one [`WorkerPool`]
/// ([`WorkerPool::run_indexed_stateful`] is the fan-out; it returns the
/// participants' states, which the caller merges in task-index order).
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

    /// The executor a full mine whose first level makes `screens` screens
    /// runs on: `self`, or [`Exec::solo`] below [`HIRE_SCREENS`].
    pub(crate) fn hire(&self, screens: u64) -> Self {
        if screens < HIRE_SCREENS {
            Self::solo()
        } else {
            self.clone()
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

    /// `f` of every index of a batch of `tasks` on `exec`, in index order:
    /// each participant keeps its tasks' `(index, output)` pairs, and the
    /// states are merged back by index.
    fn indexed<T: Send>(exec: &Exec, tasks: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        let mut all: Vec<(usize, T)> = exec
            .run_indexed_stateful(tasks, Vec::new, |out, i| out.push((i, f(i))))
            .into_iter()
            .flatten()
            .collect();
        all.sort_unstable_by_key(|&(i, _)| i);
        all.into_iter().map(|(_, out)| out).collect()
    }

    #[test]
    fn results_come_back_in_index_order() {
        for exec in pool_shapes() {
            let expected: Vec<usize> = (0..37).map(|i| i * i).collect();
            assert_eq!(indexed(&exec, 37, |i| i * i), expected, "{exec:?}");
        }
    }

    #[test]
    fn zero_and_tiny_task_counts_are_safe() {
        for exec in pool_shapes() {
            assert!(exec.run_indexed_stateful(0, || (), |(), _| ()).is_empty());
            assert_eq!(
                exec.run_indexed_stateful(1, Vec::new, |seen, i| seen.push(i)),
                [vec![0]]
            );
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
    fn small_first_levels_mine_solo_and_every_other_hires() {
        let exec = Exec::pool(Arc::new(WorkerPool::new(2)));
        for screens in [HIRE_SCREENS, u64::MAX] {
            assert_eq!(exec.hire(screens).size(), 2, "{screens} hires");
        }
        for screens in [0, HIRE_SCREENS - 1] {
            assert_eq!(exec.hire(screens).size(), 0, "{screens} mines solo");
        }
        assert!(
            Arc::ptr_eq(&Exec::solo().0, &Exec::solo().0),
            "one solo pool"
        );
    }

    #[test]
    fn stateful_variant_reuses_one_state_per_worker() {
        let inits = AtomicUsize::new(0);
        let states = Exec::scoped(1).run_indexed_stateful(
            20,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                Vec::new()
            },
            |seen, index| seen.push(index),
        );
        // One participant: one state serves every task, in index order.
        assert_eq!(inits.load(Ordering::Relaxed), 1);
        assert_eq!(states, vec![(0..20).collect::<Vec<_>>()]);
        // Four participants: at most one state each, and each comes back.
        let inits = AtomicUsize::new(0);
        let states = Exec::scoped(4).run_indexed_stateful(
            20,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0usize
            },
            |ran, _| *ran += 1,
        );
        assert!(inits.load(Ordering::Relaxed) <= 4);
        assert_eq!(states.len(), inits.load(Ordering::Relaxed));
        assert_eq!(states.iter().sum::<usize>(), 20);
    }

    #[test]
    fn exec_variants_agree_with_each_other() {
        let expected: Vec<usize> = (0..53).map(|i| i * 7 + 1).collect();
        for exec in pool_shapes()
            .into_iter()
            .chain([Exec::scoped(1), Exec::scoped(4)])
        {
            let results = indexed(&exec, 53, |i| i * 7 + 1);
            assert_eq!(results, expected, "executor {exec:?} diverged");
        }
    }

    #[test]
    fn work_is_shared_between_workers() {
        let seen: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        let results = indexed(&Exec::scoped(4), 64, |i| {
            // Make tasks slow enough that several workers participate.
            std::thread::sleep(std::time::Duration::from_micros(200));
            seen.lock().unwrap().insert(std::thread::current().id());
            i
        });
        assert_eq!(results.len(), 64);
        let seen = seen.lock().unwrap().len();
        assert!((2..=4).contains(&seen), "{seen} threads ran tasks");
    }
}
