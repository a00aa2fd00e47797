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
//! * **Determinism is the caller's to keep, and cheap to keep.**  Tasks are
//!   claimed from an atomic counter (dynamic load balancing), and every
//!   participant accumulates what its tasks produce in its own `init()`
//!   state: the pool keeps no per-task result, slot or lock.  The states
//!   come back to the caller, and because a participant claims indices in
//!   increasing order, the caller merges them **in task-index order** by
//!   moving each task's range of output into place — no sort, and nothing
//!   to move with one participant — so the canonical-order output is
//!   byte-identical for any pool size.  The `miner_agreement` / `epoch_agreement` /
//!   `tenant_isolation` property suites in `fsm-core` gate exactly this.
//!
//! The pool never decides whether a batch is worth its helpers: every call
//! with more than one task offers it to them.  The caller decides by which
//! pool it calls — `fsm_core`'s hire rule (`fsm_core::parallel::HIRE_SCREENS`) sends
//! a full mine whose own first level screens few candidates to one
//! process-wide [`WorkerPool::inline_only`] pool instead, where waking
//! helpers would cost more than they save.
//!
//! # Why this crate contains `unsafe`
//!
//! Subtree tasks borrow the per-mine window view (frequent-row tables,
//! row borrows), so the closures handed to the pool are **not**
//! `'static`.  The safe way to run borrowed closures on other threads is
//! `std::thread::scope`, which spawns and joins its threads per call — the
//! engine's original executor.  Persistent pool threads cannot accept
//! borrowed closures safely, so a batch is offered to them as one queued
//! *ticket*: the batch context as a type-erased raw pointer, plus the
//! runner monomorphised to re-borrow it.  Soundness rests on one join
//! protocol, argued at `Offer`:
//!
//! * **join** — a worker takes a seat in the front ticket and counts itself
//!   inside it, under the queue lock;
//! * **leave** — it uncounts itself when the runner returns;
//! * **withdraw** — the caller removes its ticket under the same lock, then
//!   blocks until nobody is inside, on every exit path (a drop guard, so an
//!   unwinding caller withdraws too).
//!
//! The rest of the workspace keeps its `#![forbid(unsafe_code)]` (one exception:
//! `fsm-storage`'s `bitvec::kernel`, two calls into `#[target_feature]`
//! code behind the CPU feature test — it carries its own number); the
//! unsafety is confined to this module, audited by the stress tests below,
//! and run under Miri in CI.
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
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

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
    /// The batches offered to helpers, oldest first.
    queue: Mutex<VecDeque<Arc<Ticket>>>,
    work_ready: Condvar,
    shutdown: AtomicBool,
    /// Cumulative batches offered to helpers (observability only).
    hires: AtomicU64,
}

/// A fixed set of worker threads multiplexing mining subtree tasks from many
/// concurrent callers.  See the module docs for the execution model.
///
/// The pool is inert until someone calls
/// [`WorkerPool::run_indexed_stateful`]; idle workers block on a condvar and
/// cost nothing.  Dropping the pool joins every worker; its queue is empty
/// by then, because every batch withdraws its ticket before its call
/// returns.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.workers.len())
            .field("hires", &self.hires())
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
            hires: AtomicU64::new(0),
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

    /// Cumulative batches offered to this pool's workers since creation:
    /// every [`WorkerPool::run_indexed_stateful`] call with at least two
    /// tasks on a pool with at least one worker, counted before the call
    /// returns — whether or not a worker woke in time to help.
    pub fn hires(&self) -> u64 {
        self.shared.hires.load(Ordering::Relaxed)
    }

    /// Runs `task(state, i)` for every `i` in `0..tasks` and hands back the
    /// participants' states: the calling thread executes tasks itself while
    /// up to `min(pool size, tasks - 1)` pool workers help.  Every
    /// participant owns one `init()`-created state for the whole batch and
    /// accumulates in it whatever its tasks produce (the miners keep one
    /// scratch arena and one output list per participant this way); the pool
    /// keeps nothing per task.
    ///
    /// One state comes back per participant that claimed a task — none for
    /// zero tasks, one when the caller ran them all — in no particular
    /// order.  Which indices a state saw depends on the schedule, but a
    /// participant claims them off a shared counter, so each state saw its
    /// own in increasing order: a caller that needs output in index order
    /// records the indices in its state and merges the states by them,
    /// without a sort.
    ///
    /// Concurrent calls from different threads interleave their tasks over
    /// the same fixed worker set; each caller always makes progress on its
    /// own batch regardless of what the pool is doing for anyone else.
    ///
    /// If `init` or a task panics, its participant drops its state and
    /// claims no further, while the others run on until the counter runs
    /// dry.  The caller then resumes the panic of the lowest index,
    /// whichever participant hit it, mirroring what `std::thread::scope`
    /// would have done: every lower index was claimed before it, and ran.
    pub fn run_indexed_stateful<S, I, F>(&self, tasks: usize, init: I, task: F) -> Vec<S>
    where
        S: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) + Sync,
    {
        if tasks == 0 {
            return Vec::new();
        }
        // The caller is always one participant, so helpers beyond `tasks - 1`
        // could never claim anything.
        let seats = self.size().min(tasks - 1);
        let ctx: BatchCtx<'_, S, I, F> = BatchCtx {
            next: AtomicUsize::new(0),
            tasks,
            init: &init,
            task: &task,
            states: Mutex::new(Vec::with_capacity(seats + 1)),
            panic: Mutex::new(None),
        };

        // Declared after `ctx`, so even an unwinding caller withdraws the
        // ticket before `ctx` dies.
        let offer = (seats > 0).then(|| {
            // SAFETY (pointer creation): the pointer is only dereferenced by
            // `run_batch_erased::<S, I, F>`, which casts it back to the
            // exact `BatchCtx` type it was erased from, and only by a worker
            // counted inside the ticket — see `Offer` for why `ctx` outlives
            // every such worker.
            let erased = &ctx as *const BatchCtx<'_, S, I, F> as *const ();
            self.offer(erased, run_batch_erased::<S, I, F>, seats)
        });

        // The caller participates like any worker: claims tasks until the
        // counter runs dry.  This is what guarantees progress even when every
        // pool worker is busy with other tenants' batches.
        run_batch(&ctx);
        // Withdraw the ticket and wait for the helpers inside it: after
        // this, every claimed task is done and nobody holds `ctx`.
        drop(offer);

        if let Some((_, payload)) = ctx
            .panic
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
        {
            resume_unwind(payload);
        }
        ctx.states
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues a ticket with `seats` seats for `run(ctx)` and counts the hire.
    fn offer(&self, ctx: *const (), run: unsafe fn(*const ()), seats: usize) -> Offer<'_> {
        let ticket = Arc::new(Ticket {
            ctx,
            run,
            seats: Mutex::new(Seats {
                open: seats,
                inside: 0,
            }),
            emptied: Condvar::new(),
        });
        lock_unpoisoned(&self.shared.queue).push_back(Arc::clone(&ticket));
        self.shared.hires.fetch_add(1, Ordering::Relaxed);
        self.shared.work_ready.notify_all();
        Offer {
            shared: &self.shared,
            ticket,
        }
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
    while let Some(ticket) = join(shared) {
        // SAFETY: this worker is counted inside `ticket`, so the ticket's
        // caller is still blocked in `Offer::drop` or has not reached it:
        // `ctx` and everything it borrows are alive (see `Offer`).
        // `run_batch` catches task panics, so the leave below is always
        // reached.
        unsafe { (ticket.run)(ticket.ctx) };
        let mut seats = lock_unpoisoned(&ticket.seats);
        seats.inside -= 1;
        if seats.inside == 0 {
            ticket.emptied.notify_one();
        }
    }
}

/// Blocks until a ticket is queued, takes a seat in the front one and counts
/// this worker inside it; `None` once the pool shuts down.  The worker that
/// takes a ticket's last seat dequeues it.
fn join(shared: &PoolShared) -> Option<Arc<Ticket>> {
    let mut queue = lock_unpoisoned(&shared.queue);
    loop {
        if let Some(front) = queue.front() {
            let ticket = Arc::clone(front);
            let mut seats = lock_unpoisoned(&ticket.seats);
            seats.open -= 1;
            seats.inside += 1;
            let full = seats.open == 0;
            drop(seats);
            if full {
                queue.pop_front();
            }
            return Some(ticket);
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return None;
        }
        queue = shared
            .work_ready
            .wait(queue)
            .unwrap_or_else(|poisoned| poisoned.into_inner());
    }
}

/// One batch offered to the pool's workers: its caller's type-erased
/// [`BatchCtx`] and the runner monomorphised for it.  Queued by
/// [`WorkerPool::offer`], joined by [`join`], withdrawn by [`Offer`].
struct Ticket {
    ctx: *const (),
    run: unsafe fn(*const ()),
    seats: Mutex<Seats>,
    /// Signalled when the last worker inside leaves.
    emptied: Condvar,
}

// SAFETY: `ctx` is the one field that is not `Send` and `Sync` by itself.
// It is dereferenced only by workers counted inside the ticket, while its
// caller keeps the context alive (see `Offer`), and everything reachable
// from a `BatchCtx` is shareable across threads (the `I: Sync`, `F: Sync`
// bounds mirror what `std::thread::scope` demanded of the old fan-out, and
// `S: Send` lets a helper's state travel back to the caller).  `run` is a
// function pointer; `seats` and `emptied` are a `Mutex` and a `Condvar`.
unsafe impl Send for Ticket {}
// SAFETY: as for `Send`: a shared `&Ticket` reads `ctx` and `run`, and
// changes nothing but through `seats`' mutex.
unsafe impl Sync for Ticket {}

struct Seats {
    /// Workers that may still join.
    open: usize,
    /// Workers that joined and have not left.
    inside: usize,
}

/// The caller's hold on its queued ticket.  Dropping it — on return, or
/// while the caller unwinds — withdraws the ticket and waits until no
/// worker is inside it (the module docs' join / leave / withdraw).
///
/// A worker joins only a ticket it finds in the queue, under the queue
/// lock, so that lock orders every join before or after the withdrawal.  A
/// worker that joined before it is counted when the caller reads `inside`,
/// and is waited for; a worker that comes after it finds no ticket.  So no
/// worker dereferences `ctx` after the caller leaves
/// `run_indexed_stateful`, and every task a helper claimed is done when the
/// wait ends: the caller's own [`run_batch`] exhausted the counter, and the
/// helpers that claimed the rest have left.  Helpers may still be running
/// long subtrees at that moment, so the wait blocks rather than spins.
struct Offer<'a> {
    shared: &'a PoolShared,
    ticket: Arc<Ticket>,
}

impl Drop for Offer<'_> {
    fn drop(&mut self) {
        let mut queue = lock_unpoisoned(&self.shared.queue);
        if let Some(at) = queue.iter().position(|t| Arc::ptr_eq(t, &self.ticket)) {
            queue.remove(at);
        }
        drop(queue);
        let mut seats = lock_unpoisoned(&self.ticket.seats);
        while seats.inside > 0 {
            seats = self
                .ticket
                .emptied
                .wait(seats)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }
}

/// Everything one batch's participants share, on the caller's stack.  Each
/// participant takes `states` or `panic` once, when it stops claiming.
struct BatchCtx<'a, S, I, F> {
    next: AtomicUsize,
    tasks: usize,
    init: &'a I,
    task: &'a F,
    /// The states of the participants that ran every task they claimed.
    states: Mutex<Vec<S>>,
    /// The lowest index whose `init` or task panicked, with its payload.
    panic: Mutex<Option<(usize, Payload)>>,
}

type Payload = Box<dyn std::any::Any + Send + 'static>;

/// Monomorphised helper entry point: recovers the typed context from the
/// erased pointer.
///
/// # Safety
///
/// `ptr` must point to a live `BatchCtx<S, I, F>` produced by a
/// `run_indexed_stateful::<S, I, F>` call with exactly these type
/// parameters; guaranteed by the join protocol (see [`Offer`]) plus the
/// fact that each ticket carries the runner monomorphised alongside its own
/// pointer.
unsafe fn run_batch_erased<S, I, F>(ptr: *const ())
where
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) + Sync,
{
    let ctx = unsafe { &*(ptr as *const BatchCtx<'_, S, I, F>) };
    run_batch::<S, I, F>(ctx);
}

/// One participant's work loop: claim indices off the shared counter until
/// exhausted, owning one `init()` state for the whole run, then hand the
/// state back.  Never unwinds: `init` and each task run under
/// `catch_unwind`, and a captured panic stops the participant and is
/// recorded for the caller to resume.
fn run_batch<S, I, F>(ctx: &BatchCtx<'_, S, I, F>)
where
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) + Sync,
{
    let mut index = ctx.next.fetch_add(1, Ordering::SeqCst);
    if index >= ctx.tasks {
        return;
    }
    // `init` panicking records the panic on the index it claimed: this
    // participant can run nothing, the others may run the rest, and the
    // caller resumes this panic before any index left unclaimed.
    let mut state = match catch_unwind(AssertUnwindSafe(ctx.init)) {
        Ok(state) => state,
        Err(payload) => return record_panic(ctx, index, payload),
    };
    loop {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (ctx.task)(&mut state, index))) {
            drop(state);
            return record_panic(ctx, index, payload);
        }
        index = ctx.next.fetch_add(1, Ordering::SeqCst);
        if index >= ctx.tasks {
            break;
        }
    }
    lock_unpoisoned(&ctx.states).push(state);
}

/// Keeps `index`'s panic if it is the lowest so far.
fn record_panic<S, I, F>(ctx: &BatchCtx<'_, S, I, F>, index: usize, payload: Payload) {
    let mut lowest = lock_unpoisoned(&ctx.panic);
    if lowest.as_ref().is_none_or(|&(at, _)| index < at) {
        *lowest = Some((index, payload));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU32;

    /// Runs `f` on every index of a batch of `tasks` with participant-owned
    /// output — each state the `(index, output)` pairs its tasks pushed —
    /// and merges the states back by index.  Checks the contract on the
    /// way: every state saw its indices in increasing order, and every
    /// index landed in exactly one state, exactly once.
    fn indexed<T: Send>(pool: &WorkerPool, tasks: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        let states = pool.run_indexed_stateful(tasks, Vec::new, |out: &mut Vec<(usize, T)>, i| {
            out.push((i, f(i)))
        });
        assert!(states.len() <= (pool.size() + 1).min(tasks));
        for state in &states {
            assert!(
                !state.is_empty(),
                "a participant that claimed nothing came back"
            );
            assert!(
                state.windows(2).all(|w| w[0].0 < w[1].0),
                "a participant claimed out of order"
            );
        }
        let mut all: Vec<(usize, T)> = states.into_iter().flatten().collect();
        all.sort_unstable_by_key(|&(i, _)| i);
        assert!(
            all.iter().map(|&(i, _)| i).eq(0..tasks),
            "an index landed twice or not at all"
        );
        all.into_iter().map(|(_, out)| out).collect()
    }

    #[test]
    fn results_come_back_in_index_order() {
        let tasks = [0, 1, 2, 3, if cfg!(miri) { 100 } else { 1_000 }];
        for pool in [1, 2, 4].map(WorkerPool::new) {
            for tasks in tasks {
                // `2` and `3` are fewer tasks than a four-helper pool has
                // participants.
                let results = indexed(&pool, tasks, |i| i * i);
                assert_eq!(results, (0..tasks).map(|i| i * i).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn zero_and_tiny_task_counts_are_safe() {
        let pool = WorkerPool::new(2);
        let inits = AtomicU32::new(0);
        let states = pool.run_indexed_stateful(
            0,
            || inits.fetch_add(1, Ordering::SeqCst),
            |_, _| unreachable!("no index to run"),
        );
        assert!(states.is_empty());
        assert_eq!(inits.load(Ordering::SeqCst), 0);
        assert_eq!(pool.hires(), 0);
        // One task has no index to offer a helper.
        assert_eq!(indexed(&pool, 1, |i| i), vec![0]);
        assert_eq!(pool.hires(), 0);
    }

    #[test]
    fn caller_alone_finishes_when_pool_is_empty() {
        let pool = WorkerPool::inline_only();
        assert_eq!(pool.size(), 0);
        let states = pool.run_indexed_stateful(100, Vec::new, |seen, i| seen.push(i));
        // The caller's one state saw every index, in order.
        assert_eq!(states, vec![(0..100).collect::<Vec<_>>()]);
        assert_eq!(pool.hires(), 0);
    }

    #[test]
    fn one_state_per_participant() {
        let pool = WorkerPool::new(3);
        let inits = AtomicU32::new(0);
        let states = pool.run_indexed_stateful(
            64,
            || {
                inits.fetch_add(1, Ordering::SeqCst);
                0usize
            },
            |ran, _| {
                *ran += 1;
                std::thread::sleep(std::time::Duration::from_micros(100));
            },
        );
        // Caller + at most 3 helpers, and only participants that claimed at
        // least one task ever init a state; every state comes back.
        let inits = inits.load(Ordering::SeqCst);
        assert!((1..=4).contains(&inits), "{inits} states initialised");
        assert_eq!(states.len(), inits as usize);
        assert_eq!(states.iter().sum::<usize>(), 64);
    }

    #[test]
    fn pool_workers_actually_participate() {
        let pool = WorkerPool::new(4);
        let runners = indexed(&pool, 256, |_| {
            std::thread::sleep(std::time::Duration::from_micros(50));
            std::thread::current().id()
        });
        // Timing-dependent in principle, but with 256 sleeping tasks and 4
        // idle workers, at least one worker must have run a task beside the
        // caller.
        let distinct: HashSet<_> = runners.into_iter().collect();
        assert!(distinct.len() >= 2, "no pool worker ever helped");
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
                    let results = indexed(&pool, tasks, |i| base + i as u64);
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
        // Saturate the single pool worker with a slow batch from one thread,
        // then run many short-lived batches that finish before the worker
        // is free: each must withdraw its ticket, so the worker never joins
        // a batch whose context is gone.
        let pool = Arc::new(WorkerPool::new(1));
        let blocker = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                indexed(&pool, 2, |i| {
                    if i == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(100));
                    }
                    i
                })
            })
        };
        for round in 0..50usize {
            let results = indexed(&pool, 4, |i| i + round);
            assert_eq!(results, vec![round, round + 1, round + 2, round + 3]);
        }
        assert_eq!(blocker.join().expect("blocker panicked"), vec![0, 1]);
    }

    #[test]
    fn a_panicking_init_propagates_from_the_caller_alone() {
        let pool = WorkerPool::inline_only();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pool.run_indexed_stateful(3, || -> () { panic!("init boom") }, |(), _| ())
        }));
        let payload = outcome.expect_err("panic was swallowed");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"init boom"));
    }

    #[test]
    fn a_panicking_init_stops_its_participant_alone() {
        // Only a helper's `init` panics.  A helper runs `init` only once it
        // has claimed an index, which then never runs: its panic is the
        // batch's.  A helper too late to claim one never runs `init`, and
        // the caller's state comes back holding every index.
        let pool = WorkerPool::new(1);
        let caller = std::thread::current().id();
        for _ in 0..if cfg!(miri) { 5 } else { 200 } {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                pool.run_indexed_stateful(
                    8,
                    || {
                        if std::thread::current().id() != caller {
                            panic!("helper init boom");
                        }
                        Vec::new()
                    },
                    |seen, i| seen.push(i),
                )
            }));
            match outcome {
                Ok(states) => assert_eq!(states, vec![(0..8).collect::<Vec<_>>()]),
                Err(payload) => {
                    assert_eq!(payload.downcast_ref::<&str>(), Some(&"helper init boom"))
                }
            }
        }
    }

    #[test]
    fn the_lowest_panicking_index_is_resumed_whichever_participant_ran_it() {
        // Indices 3 and 5 panic.  A slow index 1 keeps its participant busy
        // while the other claims on, so which participant reaches 3 and 5
        // varies with the schedule; the resumed panic is always index 3's.
        for helpers in [0, 1, 3] {
            let pool = match helpers {
                0 => WorkerPool::inline_only(),
                n => WorkerPool::new(n),
            };
            for round in 0..if cfg!(miri) { 3 } else { 50 } {
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    pool.run_indexed_stateful(
                        12,
                        || (),
                        |(), i| match i {
                            1 if round % 2 == 0 => {
                                std::thread::sleep(std::time::Duration::from_micros(200))
                            }
                            3 => panic!("index 3"),
                            5 => panic!("index 5"),
                            _ => {}
                        },
                    )
                }));
                let payload = outcome.expect_err("panic was swallowed");
                assert_eq!(
                    payload.downcast_ref::<&str>(),
                    Some(&"index 3"),
                    "{helpers} helpers, round {round}"
                );
            }
        }
    }

    #[test]
    fn a_finished_batch_leaves_nothing_queued() {
        let pool = WorkerPool::new(1);
        let started = AtomicUsize::new(0);
        let release = AtomicBool::new(false);
        std::thread::scope(|scope| {
            // Hold the one worker inside a blocker batch: both of its tasks
            // wait for `release`, and its caller can run only one of them.
            let blocker = scope.spawn(|| {
                indexed(&pool, 2, |i| {
                    started.fetch_add(1, Ordering::SeqCst);
                    while !release.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    i
                })
            });
            while started.load(Ordering::SeqCst) < 2 {
                std::thread::yield_now();
            }

            // The worker is busy, so this batch's caller runs every task.
            let states = pool.run_indexed_stateful(4, Vec::new, |seen, i| seen.push(i * 3));
            assert_eq!(states, vec![vec![0, 3, 6, 9]]);
            assert!(lock_unpoisoned(&pool.shared.queue).is_empty());
            assert_eq!(pool.hires(), 2);

            release.store(true, Ordering::SeqCst);
            assert_eq!(blocker.join().expect("blocker panicked"), vec![0, 1]);
        });
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
            assert_eq!(indexed(&pool, 3, |i| i + round).len(), 3);
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
                    },
                )
            })
            .join()
        };
        // The batch's caller observes the panic whichever participant hit it.
        assert!(outcome.is_err(), "panic was swallowed");
        // And the pool still serves new batches afterwards.
        assert_eq!(indexed(&pool, 5, |i| i * 2), vec![0, 2, 4, 6, 8]);
    }
}
