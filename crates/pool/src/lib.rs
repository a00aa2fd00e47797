//! The workspace's one executor: a fixed-size, caller-participating worker
//! pool for the mining fan-out.
//!
//! Every mine fans its top-level subtree tasks out through a [`WorkerPool`]
//! (behind `fsm_core::Exec`): a standalone `StreamMiner` owns a private pool
//! sized by its `threads` setting and built once, the multi-tenant service
//! shares **one fixed set of threads per process** between however many
//! concurrent tenant mines are in flight.  Nothing spawns threads per mine.
//!
//! The execution model is *caller-participating*: the thread that calls
//! [`WorkerPool::run_indexed_stateful`] claims and executes tasks from its
//! own batch exactly like a pool worker would, while the pool's threads join
//! in for whatever tasks are left.  Two properties follow:
//!
//! * **No mine ever waits for pool capacity.**  A saturated (or zero-sized,
//!   [`WorkerPool::inline_only`]) pool degrades a mine to sequential
//!   execution on its own thread; it never deadlocks or queues behind other
//!   tenants' mines.
//! * **Determinism is untouched.**  Tasks are claimed from an atomic counter
//!   (dynamic load balancing) but results are returned **in task-index
//!   order**, so the canonical-order merge — and therefore byte-identical
//!   output for any pool size — is preserved.  The `miner_agreement` /
//!   `epoch_agreement` / `tenant_isolation` property suites in `fsm-core`
//!   gate exactly this.
//!
//! # Why this crate contains `unsafe`
//!
//! Subtree tasks borrow the per-mine window view (frequent-row tables,
//! row borrows), so the closures handed to the pool are **not**
//! `'static`.  The safe way to run borrowed closures on other threads is
//! `std::thread::scope`, which spawns and joins its threads per call — the
//! engine's original executor.  Persistent pool threads cannot accept
//! borrowed closures safely, so the batch context is passed as a type-erased
//! raw pointer and re-borrowed inside a monomorphised runner function.
//! Soundness rests on a simple join protocol, documented at `Gate`: the
//! caller does not return from `run_indexed_stateful` (i.e. the borrowed
//! context stays alive) until every helper that could still dereference the
//! pointer has provably exited its dereferencing region — including when the
//! caller itself unwinds, via `GateGuard`.  The rest of the workspace keeps
//! its `#![forbid(unsafe_code)]` (one exception: `fsm-storage`'s
//! `bitvec::kernel`, two calls into `#[target_feature]` code behind the CPU
//! feature test — it carries its own number); the unsafety is confined to
//! this module, audited by the stress tests below, and run under Miri in CI.
//!
//! **The number that pays for it.**  The two executors were
//! property-tested byte-identical, so which one to keep was a measurement:
//! the service's `Exec::pool` requests were rerouted through the
//! `thread::scope` implementation (same participant count) and raced
//! against the unmodified build on the repo benchmark (`benchmark/`,
//! alternating pairs, 15–20 s runs, seeds 1–6, 2-vCPU host).  On the
//! one-connection workloads per-mine spawning is within noise
//! (`dense_full`: pool ahead in 6 of 9 pairs, gaps −11 % … +9 %;
//! `fleet_serial`: 2 of 4).  On two-connection `fleet_disk` — two mines
//! sharing the cores, the shape the service exists for — it lost
//! **14–31 % `tx_per_s`** and added **26–82 % to `step_p95_ms`** in 3 of 3
//! pairs (re-measured when the scoped path was deleted: same sign in 3 of 3
//! pairs, −4 … −25 % `tx_per_s`, +3 … +63 % `step_p95_ms` — the host is
//! noisy, the direction is not).  So the pool is the executor the service
//! needs, per-mine scoped threads the one no caller needs, and the scoped
//! implementation was deleted rather than this module.
//!
//! To regenerate: check out the last commit that still has
//! `fsm_core::parallel::run_indexed_stateful` (the parent of the commit
//! that introduced this paragraph), make the `Exec::Pool` arm of
//! `Exec::run_indexed_stateful` call it with `pool.size() + 1` threads,
//! build `benchmark/` from that tree and from the unmodified one, and
//! alternate `fsm-benchmark --workload fleet_disk --seed N --seconds 20`
//! between the two binaries.

#![warn(missing_docs)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// A job queued on the pool: a boxed helper that participates in one batch.
type Job = Box<dyn FnOnce() + Send>;

/// Lock a mutex, shrugging off poisoning (a panicked task in one tenant's
/// batch must not wedge every other tenant's mine; the panic itself is still
/// surfaced to whoever owns the batch).
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Shared state between the pool handle and its worker threads.
struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    work_ready: Condvar,
    shutdown: AtomicBool,
    /// Cumulative helper jobs executed by pool workers (observability only).
    jobs_run: AtomicU64,
}

/// A fixed set of worker threads multiplexing mining subtree tasks from many
/// concurrent callers.  See the module docs for the execution model.
///
/// The pool is inert until someone calls
/// [`WorkerPool::run_indexed_stateful`]; idle workers block on a condvar and
/// cost nothing.  Dropping the pool joins every worker (queued helpers are
/// drained first — they become no-ops once their batch has completed).
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.workers.len())
            .field("jobs_run", &self.jobs_run())
            .finish()
    }
}

impl WorkerPool {
    /// Creates a pool of `threads` workers (`0` = one per available core).
    pub fn new(threads: usize) -> Self {
        Self::with_workers(match threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        })
    }

    /// Creates a pool with **no** worker threads: every batch runs inline on
    /// its caller.  The degenerate corner of the multiplexing model, pinned
    /// by the isolation property tests.
    pub fn inline_only() -> Self {
        Self::with_workers(0)
    }

    fn with_workers(threads: usize) -> Self {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            jobs_run: AtomicU64::new(0),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("fsm-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker thread")
            })
            .collect();
        Self { shared, workers }
    }

    /// Number of pool worker threads (callers add themselves on top).
    pub fn size(&self) -> usize {
        self.workers.len()
    }

    /// Cumulative helper jobs executed by pool workers since creation.
    pub fn jobs_run(&self) -> u64 {
        self.shared.jobs_run.load(Ordering::Relaxed)
    }

    /// Runs `task(0..tasks)` and returns the results **in index order**:
    /// the calling thread executes tasks itself while up to
    /// `min(pool size, tasks - 1)` pool workers help.  Every participant
    /// owns one `init()`-created state for the whole batch (the miners share
    /// one scratch arena per worker this way).
    ///
    /// Concurrent calls from different threads interleave their tasks over
    /// the same fixed worker set; each caller always makes progress on its
    /// own batch regardless of what the pool is doing for anyone else.
    ///
    /// If any task panics, the batch completes (every index is still
    /// executed — panic payloads are captured per task) and the panic of the
    /// lowest index is resumed on the caller, mirroring what
    /// `std::thread::scope` would have done.
    pub fn run_indexed_stateful<T, S, I, F>(&self, tasks: usize, init: I, task: F) -> Vec<T>
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> T + Sync,
    {
        if tasks == 0 {
            return Vec::new();
        }
        let ctx: BatchCtx<'_, T, I, F> = BatchCtx {
            next: AtomicUsize::new(0),
            tasks,
            init: &init,
            task: &task,
            done: Mutex::new(DoneState {
                slots: (0..tasks).map(|_| None).collect(),
                remaining: tasks,
            }),
            all_done: Condvar::new(),
        };
        let gate = Arc::new(Gate::new());
        // The guard executes the close protocol on every exit path —
        // including a panic unwinding out of the caller's own task loop —
        // so `ctx` can never be destroyed while a helper might still be
        // inside its dereferencing region.
        let guard = GateGuard(&gate);

        // The caller is always one participant, so helpers beyond `tasks - 1`
        // could never claim anything.
        let helpers = self.size().min(tasks.saturating_sub(1));
        if helpers > 0 {
            // SAFETY (pointer creation): the pointer is only dereferenced by
            // `run_batch_erased::<T, S, I, F>` below, which casts it back to
            // the exact `BatchCtx` type it was erased from, and only while
            // `ctx` is provably alive — see the protocol on `Gate`.
            let ptr = ErasedCtx(&ctx as *const BatchCtx<'_, T, I, F> as *const ());
            let runner = run_batch_erased::<T, S, I, F> as unsafe fn(*const ());
            let mut jobs: Vec<Job> = Vec::with_capacity(helpers);
            for _ in 0..helpers {
                let gate = Arc::clone(&gate);
                jobs.push(Box::new(move || {
                    // Capture the `Send` wrapper whole (edition 2021 would
                    // otherwise capture just the non-`Send` raw field).
                    let ptr = ptr;
                    // Protocol steps H1..H3; see `Gate` for why this is sound.
                    gate.running.fetch_add(1, Ordering::SeqCst);
                    if gate.open.load(Ordering::SeqCst) {
                        // SAFETY: the gate is open, so the batch's caller is
                        // still inside `run_indexed_stateful` (the guard
                        // closes the gate and waits for `running == 0`
                        // before the context dies), hence `ctx` — and
                        // everything it borrows — is alive.  `run_batch`
                        // catches task panics internally, so the decrement
                        // below is unconditionally reached.
                        unsafe { runner(ptr.0) };
                    }
                    gate.running.fetch_sub(1, Ordering::SeqCst);
                }));
            }
            self.submit(jobs);
        }

        // The caller participates like any worker: claims tasks until the
        // counter runs dry.  This is what guarantees progress even when every
        // pool worker is busy with other tenants' batches.
        run_batch(&ctx);

        // Wait for the tasks claimed by helpers to complete.  `run_batch`
        // never unwinds (panics are captured per task), so every claimed
        // index is eventually marked done and this wait terminates.
        let mut done = lock_unpoisoned(&ctx.done);
        while done.remaining > 0 {
            done = ctx
                .all_done
                .wait(done)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        let slots = std::mem::take(&mut done.slots);
        drop(done);
        drop(guard); // close protocol: helpers are out of the region now

        let mut values = Vec::with_capacity(tasks);
        let mut first_panic = None;
        for slot in slots {
            match slot.expect("every index was claimed by exactly one participant") {
                Ok(value) => values.push(value),
                Err(payload) => {
                    if first_panic.is_none() {
                        first_panic = Some(payload);
                    }
                }
            }
        }
        if let Some(payload) = first_panic {
            resume_unwind(payload);
        }
        values
    }

    fn submit(&self, jobs: Vec<Job>) {
        let mut queue = lock_unpoisoned(&self.shared.queue);
        queue.extend(jobs);
        drop(queue);
        self.shared.work_ready.notify_all();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // The flag is raised under the queue lock because a worker reads it
        // under that lock immediately before it waits: it then either sees
        // the flag, or is already waiting when the notification goes out.
        // Raised outside the lock, both could fall between the worker's
        // check and its wait, and the join below would never return.
        {
            let _queue = lock_unpoisoned(&self.shared.queue);
            self.shared.shutdown.store(true, Ordering::SeqCst);
        }
        self.shared.work_ready.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut queue = lock_unpoisoned(&shared.queue);
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared
                    .work_ready
                    .wait(queue)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        };
        job();
        shared.jobs_run.fetch_add(1, Ordering::Relaxed);
    }
}

/// Join protocol between a batch's caller and its queued helpers.
///
/// The helper jobs hold a raw pointer to the caller's stack-allocated
/// [`BatchCtx`]; the gate makes dereferencing it sound:
///
/// * **H1** — a helper first increments `running`.
/// * **H2** — it then loads `open`; only if `true` does it touch the context.
/// * **H3** — it decrements `running` when done (whether or not it ran; the
///   runner cannot unwind, so H3 is always reached).
/// * **C1** — before the context dies, the caller stores `open = false`.
/// * **C2** — the caller spins until `running == 0`; only then may the
///   context's lifetime end.
///
/// All operations are `SeqCst`, so they form one total order.  Suppose a
/// helper passes H2 seeing `open == true` after the context died.  The
/// context's death requires C2 to have observed `running == 0`, which in
/// the total order must precede this helper's H1 (otherwise `running` was
/// ≥ 1 at C2); so the helper's H2 follows its H1, which follows C2, which
/// follows C1's store of `false` — the helper must have seen `false`.
/// Contradiction.  Therefore any helper that dereferences the pointer does
/// so while the context is alive.
///
/// On the normal path C1/C2 run after every task has completed, so a helper
/// caught inside the region exits after one exhausted counter read.  On the
/// unwind path (the caller's own task panicked — impossible for mining
/// tasks after the fsm-core sweep, but guarded regardless) helpers may
/// still be executing claimed tasks; C2 then waits for them to drain the
/// counter, which is finite work.
struct Gate {
    open: AtomicBool,
    running: AtomicUsize,
}

impl Gate {
    fn new() -> Self {
        Self {
            open: AtomicBool::new(true),
            running: AtomicUsize::new(0),
        }
    }
}

/// Executes protocol steps C1 + C2 on drop, making the close protocol
/// unwind-safe.
struct GateGuard<'a>(&'a Gate);

impl Drop for GateGuard<'_> {
    fn drop(&mut self) {
        self.0.open.store(false, Ordering::SeqCst);
        while self.0.running.load(Ordering::SeqCst) > 0 {
            std::thread::yield_now();
        }
    }
}

/// Type-erased pointer to a [`BatchCtx`].  `Send` is sound because the
/// pointee is only accessed under the [`Gate`] protocol while the owning
/// caller keeps it alive, and everything reachable from a `BatchCtx` is
/// shareable across threads (the `I: Sync`, `F: Sync`, `T: Send` bounds
/// mirror what `std::thread::scope` demanded of the old fan-out).
#[derive(Clone, Copy)]
struct ErasedCtx(*const ());

// SAFETY: see the type docs; the pointer crosses threads only inside helper
// jobs governed by the gate protocol.
unsafe impl Send for ErasedCtx {}

/// Everything one batch's participants share, on the caller's stack.
struct BatchCtx<'a, T, I, F> {
    next: AtomicUsize,
    tasks: usize,
    init: &'a I,
    task: &'a F,
    done: Mutex<DoneState<T>>,
    all_done: Condvar,
}

type TaskResult<T> = Result<T, Box<dyn std::any::Any + Send + 'static>>;

struct DoneState<T> {
    slots: Vec<Option<TaskResult<T>>>,
    remaining: usize,
}

/// Monomorphised helper entry point: recovers the typed context from the
/// erased pointer.
///
/// # Safety
///
/// `ptr` must point to a live `BatchCtx<T, I, F>` produced by a
/// `run_indexed_stateful::<T, S, I, F>` call with exactly these type
/// parameters; guaranteed by the [`Gate`] protocol plus the fact that each
/// helper job captures the runner monomorphised alongside its own pointer.
unsafe fn run_batch_erased<T, S, I, F>(ptr: *const ())
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let ctx = unsafe { &*(ptr as *const BatchCtx<'_, T, I, F>) };
    run_batch::<T, S, I, F>(ctx);
}

/// One participant's work loop: claim indices off the shared counter until
/// exhausted, owning one `init()` state for the whole run.  Never unwinds:
/// `init` and each task run under `catch_unwind`, and captured panics are
/// recorded as that index's result for the caller to resume.
fn run_batch<T, S, I, F>(ctx: &BatchCtx<'_, T, I, F>)
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let first = ctx.next.fetch_add(1, Ordering::SeqCst);
    if first >= ctx.tasks {
        return;
    }
    let mut state = match catch_unwind(AssertUnwindSafe(ctx.init)) {
        Ok(state) => Some(state),
        Err(payload) => {
            // `init` panicked: this participant can run nothing.  Record the
            // panic on the claimed index and put the index's siblings back in
            // play by *not* claiming further (other participants' counters
            // still cover them — the caller always participates and its
            // `init` result is independent).
            complete(ctx, first, Err(payload));
            return;
        }
    };
    let state = state.as_mut().expect("state initialised above");
    let mut index = first;
    loop {
        let result = catch_unwind(AssertUnwindSafe(|| (ctx.task)(state, index)));
        complete(ctx, index, result);
        index = ctx.next.fetch_add(1, Ordering::SeqCst);
        if index >= ctx.tasks {
            return;
        }
    }
}

/// Records one task's outcome and wakes the caller when the batch is done.
fn complete<T, I, F>(ctx: &BatchCtx<'_, T, I, F>, index: usize, result: TaskResult<T>) {
    let mut done = lock_unpoisoned(&ctx.done);
    done.slots[index] = Some(result);
    done.remaining -= 1;
    let finished = done.remaining == 0;
    drop(done);
    if finished {
        ctx.all_done.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn results_come_back_in_index_order() {
        for pool_size in [1, 2, 4] {
            let pool = WorkerPool::new(pool_size);
            let results = pool.run_indexed_stateful(37, || (), |(), i| i * i);
            assert_eq!(results, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_and_tiny_task_counts_are_safe() {
        let pool = WorkerPool::new(2);
        assert!(pool
            .run_indexed_stateful(0, || (), |(), i: usize| i)
            .is_empty());
        assert_eq!(pool.run_indexed_stateful(1, || (), |(), i| i), vec![0]);
    }

    #[test]
    fn caller_alone_finishes_when_pool_is_empty() {
        let pool = WorkerPool::inline_only();
        assert_eq!(pool.size(), 0);
        let results = pool.run_indexed_stateful(
            100,
            || 0usize,
            |state, i| {
                *state += 1;
                i
            },
        );
        assert_eq!(results.len(), 100);
        assert_eq!(pool.jobs_run(), 0);
    }

    #[test]
    fn one_state_per_participant() {
        let pool = WorkerPool::new(3);
        let inits = AtomicU32::new(0);
        let results = pool.run_indexed_stateful(
            64,
            || {
                inits.fetch_add(1, Ordering::SeqCst);
                0usize
            },
            |state, i| {
                *state += 1;
                std::thread::sleep(std::time::Duration::from_micros(100));
                i
            },
        );
        assert_eq!(results.len(), 64);
        // Caller + at most 3 helpers, and only participants that claimed at
        // least one task ever init a state.
        let inits = inits.load(Ordering::SeqCst);
        assert!((1..=4).contains(&inits), "{inits} states initialised");
    }

    #[test]
    fn pool_workers_actually_participate() {
        let pool = WorkerPool::new(4);
        let results = pool.run_indexed_stateful(
            256,
            || (),
            |(), i| {
                std::thread::sleep(std::time::Duration::from_micros(50));
                i
            },
        );
        assert_eq!(results.len(), 256);
        // Timing-dependent in principle, but with 256 sleeping tasks and 4
        // idle workers, at least one helper job must have run.
        assert!(pool.jobs_run() > 0, "no pool worker ever helped");
    }

    #[test]
    fn concurrent_batches_from_many_threads_interleave_safely() {
        let pool = Arc::new(WorkerPool::new(3));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let pool = Arc::clone(&pool);
            handles.push(std::thread::spawn(move || {
                for round in 0..20u64 {
                    let tasks = 1 + ((t + round) % 17) as usize;
                    let base = t * 1_000 + round;
                    let results = pool.run_indexed_stateful(tasks, || (), |(), i| base + i as u64);
                    let expected: Vec<u64> = (0..tasks).map(|i| base + i as u64).collect();
                    assert_eq!(results, expected);
                }
            }));
        }
        for handle in handles {
            handle.join().expect("batch thread panicked");
        }
    }

    #[test]
    fn batches_outlive_queued_helpers_without_touching_freed_state() {
        // Saturate the single pool worker with a slow job from one thread,
        // then run many short-lived batches whose helpers will only be
        // dequeued after the batches have completed and their contexts are
        // gone — those helpers must exit through the closed gate without
        // dereferencing anything.
        let pool = Arc::new(WorkerPool::new(1));
        let blocker = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                pool.run_indexed_stateful(
                    2,
                    || (),
                    |(), i| {
                        if i == 0 {
                            std::thread::sleep(std::time::Duration::from_millis(100));
                        }
                        i
                    },
                )
            })
        };
        for round in 0..50usize {
            let results = pool.run_indexed_stateful(4, || (), |(), i| i + round);
            assert_eq!(results, vec![round, round + 1, round + 2, round + 3]);
        }
        blocker.join().expect("blocker panicked");
    }

    #[test]
    fn dropping_a_pool_whose_workers_are_going_idle_always_joins() {
        // Every `StreamMiner` owns a pool and drops it right after its last
        // mine, i.e. while the workers are between "queue is empty" and
        // "wait": a shutdown they can miss there hangs the drop.  A stress
        // loop cannot force that interleaving, only make it likely.
        let rounds = if cfg!(miri) { 20 } else { 2_000 };
        for round in 0..rounds {
            let pool = WorkerPool::new(2);
            assert_eq!(
                pool.run_indexed_stateful(3, || (), |(), i| i + round).len(),
                3
            );
        }
    }

    #[test]
    fn a_panicking_task_propagates_without_wedging_the_pool() {
        let pool = Arc::new(WorkerPool::new(2));
        let outcome = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                pool.run_indexed_stateful(
                    8,
                    || (),
                    |(), i| {
                        if i == 3 {
                            panic!("task boom");
                        }
                        i
                    },
                )
            })
            .join()
        };
        // The batch's caller observes the panic whichever participant hit it.
        assert!(outcome.is_err(), "panic was swallowed");
        // And the pool still serves new batches afterwards.
        let results = pool.run_indexed_stateful(5, || (), |(), i| i * 2);
        assert_eq!(results, vec![0, 2, 4, 6, 8]);
    }
}
