//! Multi-tenant session layer: many independent sliding windows served by
//! one process.
//!
//! A [`Session`] owns what a single-tenant process owned implicitly — one
//! window (a [`StreamMiner`]) plus its miner configuration and optional
//! delta/durable state — behind a lock, so ingest producers, on-demand mine
//! callers and subscription consumers can share it from different threads.
//! The [`SessionRegistry`] keys sessions by tenant id and owns the
//! process-wide resources every session draws from:
//!
//! * one [`Exec`] — typically [`Exec::pool`] over a fixed
//!   [`crate::WorkerPool`], so a thousand concurrent tenant mines multiplex
//!   their subtree tasks over one worker set instead of each bringing its
//!   own threads;
//! * one optional [`BudgetGovernor`] — the process-wide cap on resident
//!   decoded segments the disk-backed tenants lease from;
//! * one optional durable root — each durable tenant's WAL/checkpoints live
//!   under `durable_root/<tenant>/`, so recovery is per tenant
//!   ([`SessionRegistry::recover_tenant`]) and a tenant id is all an
//!   operator needs to find its artifacts.
//!
//! Per-tenant output is **byte-identical to a standalone single-tenant
//! run** of the same batch/mine sequence, for every backend, pool size and
//! cross-tenant interleaving — property-tested in
//! `crates/core/tests/tenant_isolation.rs`.  The ingredients: sessions
//! never share mutable mining state, pool tasks return in task-index order,
//! and the budget governor only moves bytes between disk and cache.
//!
//! # Ingest, backpressure and subscriptions
//!
//! [`Session::ingest`] applies the batch immediately when the window is
//! free; while another caller holds the window (a long mine, a recovery),
//! batches park in a bounded per-tenant queue and are drained — in arrival
//! order — by whichever caller next acquires the window.  A full queue is
//! the backpressure signal ([`fsm_types::FsmError::Backpressure`]): the
//! producer must retry, nothing is dropped, and one slow tenant cannot
//! queue unboundedly while others starve.
//!
//! [`Session::subscribe`] registers a consumer for mine-on-every-slide
//! output: whenever an ingest completes a window slide, the session mines
//! the new epoch and publishes the result; subscribers
//! [`Subscription::poll`] or block on [`Subscription::wait`] for it.  A
//! publish is the mine an on-demand [`Session::mine`] at that epoch would
//! run — [`StreamMiner::mine_with`] on the registry's executor, under the
//! window lock the slide already holds — so it reads through the tenant's
//! own budgeted view and advances its maintained delta state like any other
//! mine; producers arriving meanwhile park in the ingest queue.  (Mining
//! *off* the lock is what [`StreamMiner::snapshot`] is for; the session
//! layer does not use it.)
//!
//! # Tenant lifecycle: resident set, spill and thaw
//!
//! Each session is a small state machine ([`LifecycleState`]), and
//! `Lifecycle::step` is the only code that changes it:
//!
//! ```text
//!   state            event                   next      also
//!   Active, Idle     touch                   Active    touched set, bytes recorded
//!   Active, Idle     hand passes (touched)   Idle      touched cleared
//!   Active, Idle     spill begun             Draining
//!   Draining (spill) spill done              Spilled   bytes 0, touched cleared
//!   Draining (spill) spill failed            Active
//!   Spilled          thaw begun              Draining
//!   Draining (thaw)  thaw done               Active    bytes recorded, thaw counted
//!   Draining (thaw)  thaw failed             Spilled
//! ```
//!
//! Any other pair changes nothing, so a touch that lands after a racing
//! spill leaves the tenant spilled at 0 bytes.  A session has two locks:
//! `window` (the [`StreamMiner`], or what a thaw needs), held for a whole
//! operation, and `control` (the lifecycle, the ingest queue and the
//! publication slot subscribers wait on), held for a few field updates.
//! The one lock-order rule is `window` before `control`; a lock a caught
//! panic left poisoned counts as free.
//!
//! When [`RegistryConfig::max_resident`] or
//! [`RegistryConfig::max_resident_bytes`] is set, the registry keeps only
//! that many windows resident, by clock-style second chance: every
//! completed operation touches its session, and the sweep (run after each
//! touch, never blocking the toucher) rotates a hand over the tenant table
//! and spills the first resident it finds untouched.  A session whose
//! window is held at that moment is in use, not cold, so the sweep passes
//! over it instead of waiting; the cap is re-checked on the next touch.  A
//! spill ([`Session::spill`]) leaves one cold form for every tenant: a
//! checkpoint plus the segment runs it references — under the durable root
//! for durable tenants (their own checkpoint), and for volatile ones under
//! `spill_root/<tenant>/image/` ([`DsMatrix::spill_image`]), where a thaw
//! loads it with recovery's loader.  Dropping the window releases its
//! [`fsm_storage::BudgetLease`], so the governor re-expands the warm
//! tenants' caches automatically.
//!
//! A spilled tenant stays fully addressable: the next request against it
//! (ingest, mine, subscribe-driven publish, [`Session::with_miner`])
//! **transparently thaws** the window ([`StreamMiner::thaw`]) and proceeds;
//! thaw latency is recorded per session ([`SessionStatus`]), never surfaced
//! as an error.  Queued ingests and armed subscriptions survive the
//! spill/thaw cycle unreordered — the pending queue and publication channel
//! live outside the window.  The gating property (the `max_resident = 1`
//! axis of `tenant_isolation.rs`): a fleet served under eviction pressure
//! is byte-identical to the same fleet fully resident.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, TryLockError, Weak};
use std::time::Instant;

use fsm_dsmatrix::{decode_batch, DsMatrix, Incoming};
use fsm_storage::BudgetGovernor;
use fsm_stream::SlideOutcome;
use fsm_types::{Batch, FsmError, Result};

use crate::config::MinerConfig;
use crate::miner::StreamMiner;
use crate::parallel::Exec;
use crate::result::MiningResult;

/// Process-wide resources and policies shared by every tenant of a
/// [`SessionRegistry`].
#[derive(Debug, Clone)]
pub struct RegistryConfig {
    /// Executor every tenant mine runs on.  The service shape is
    /// [`Exec::pool`] over one fixed [`crate::WorkerPool`]; the default
    /// ([`Exec::scoped`]`(1)`, a pool without helpers) mines each tenant
    /// sequentially on the calling thread.
    pub exec: Exec,
    /// Process-wide cap on resident decoded segments the disk-backed tenants
    /// lease from (see [`MinerConfig::cache_governor`]).  `None` leaves each tenant's
    /// configured budget private — the sum is then unmanaged.
    pub governor: Option<Arc<BudgetGovernor>>,
    /// Root directory for durable tenants: a tenant configured with a disk
    /// backend and durability gets `durable_root/<tenant>/` as its durable
    /// directory.  `None` forbids durable tenants.
    pub durable_root: Option<PathBuf>,
    /// Per-tenant ingest queue bound — the backpressure threshold.
    pub max_pending_batches: usize,
    /// Resident-window cap: at most this many tenants keep their window in
    /// memory; colder ones spill (see the module docs).  `None` disables
    /// count-based eviction.
    pub max_resident: Option<usize>,
    /// Resident-byte cap: tenants spill until the summed
    /// [`SessionStatus::resident_bytes`] of resident windows fits.  `None`
    /// disables byte-based eviction.
    pub max_resident_bytes: Option<usize>,
    /// Root directory for *volatile* tenants' spill images
    /// (`spill_root/<tenant>/`).  Without it, non-durable tenants are
    /// pinned resident — the sweep skips them.  Durable tenants spill
    /// through their checkpoints and never need it.
    pub spill_root: Option<PathBuf>,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        Self {
            exec: Exec::scoped(1),
            governor: None,
            durable_root: None,
            max_pending_batches: Self::DEFAULT_MAX_PENDING,
            max_resident: None,
            max_resident_bytes: None,
            spill_root: None,
        }
    }
}

impl RegistryConfig {
    /// Default per-tenant ingest queue bound.
    pub const DEFAULT_MAX_PENDING: usize = 64;
}

/// The tenant table: creates, recovers, serves, spills and drops
/// [`Session`]s.
///
/// Shared by reference ([`Arc<SessionRegistry>`]) between every server
/// thread; all methods take `&self`.
pub struct SessionRegistry {
    shared: Arc<Shared>,
}

/// The registry state sessions point back into (via [`Weak`], so a session
/// outliving its registry simply stops sweeping): tenant table, residency
/// policy and the sweep hand.
struct Shared {
    config: RegistryConfig,
    sessions: Mutex<BTreeMap<String, Arc<Session>>>,
    /// The clock-sweep hand: the tenant id the next sweep starts from
    /// (first id `>=` it; the table may have changed since the hand last
    /// moved).  `try_lock`ed by [`Shared::enforce`] so at most one thread
    /// sweeps and a toucher never blocks on residency enforcement.
    sweep: Mutex<Option<String>>,
}

impl SessionRegistry {
    /// Maximum tenant-id length accepted by [`validate_tenant_id`].
    pub const MAX_TENANT_ID_LEN: usize = 64;

    /// Creates an empty registry.
    pub fn new(config: RegistryConfig) -> Self {
        Self {
            shared: Arc::new(Shared {
                config,
                sessions: Mutex::new(BTreeMap::new()),
                sweep: Mutex::new(None),
            }),
        }
    }

    /// The shared configuration.
    pub fn config(&self) -> &RegistryConfig {
        &self.shared.config
    }

    /// Creates a fresh tenant.
    ///
    /// The per-tenant `config` must leave [`MinerConfig::durable_dir`] and
    /// [`MinerConfig::cache_governor`] unset — the registry owns durable
    /// namespacing (`durable_root/<tenant>/`) and budget arbitration; a
    /// tenant naming its own directory could alias another tenant's state.
    /// Set `durable` to root this tenant under the registry's durable root
    /// (requires one to be configured and a disk backend).
    pub fn create_tenant(
        &self,
        tenant: &str,
        config: MinerConfig,
        durable: bool,
    ) -> Result<Arc<Session>> {
        self.admit(tenant, config, durable, false)
    }

    /// Recovers a durable tenant from `durable_root/<tenant>/` (newest
    /// verifiable checkpoint plus WAL-tail replay; see
    /// [`StreamMiner::recover`]).  The configuration must match the run
    /// being recovered, exactly as in the single-tenant case.
    pub fn recover_tenant(&self, tenant: &str, config: MinerConfig) -> Result<Arc<Session>> {
        self.admit(tenant, config, true, true)
    }

    fn admit(
        &self,
        tenant: &str,
        mut config: MinerConfig,
        durable: bool,
        recovering: bool,
    ) -> Result<Arc<Session>> {
        validate_tenant_id(tenant)?;
        if config.durable_dir.is_some() {
            return Err(FsmError::config(
                "tenant configurations must not set durable_dir: the registry \
                 namespaces durable state under durable_root/<tenant>/",
            ));
        }
        if config.cache_governor.is_some() {
            return Err(FsmError::config(
                "tenant configurations must not set cache_governor: the \
                 registry's governor arbitrates every tenant's budget",
            ));
        }
        if durable {
            let root =
                self.shared.config.durable_root.as_ref().ok_or_else(|| {
                    FsmError::config("durable tenants need a registry durable_root")
                })?;
            config.durable_dir = Some(root.join(tenant));
        }
        config.cache_governor = self.shared.config.governor.clone();
        // Durable tenants spill through their checkpoints (the durable dir
        // *is* the cold copy); volatile tenants need an explicit spill root.
        let spill_dir = if durable {
            config.durable_dir.clone()
        } else {
            self.shared
                .config
                .spill_root
                .as_ref()
                .map(|root| root.join(tenant))
        };
        let mut sessions = lock_unpoisoned(&self.shared.sessions);
        if sessions.contains_key(tenant) {
            return Err(FsmError::tenant_exists(tenant));
        }
        if !durable {
            if let Some(dir) = &spill_dir {
                // A dropped predecessor of the same name may have left a
                // spill image behind; it must never thaw into this tenant.
                // Removed only under the sessions lock and only once the
                // name is known free: a *live* spilled tenant of this name
                // owns that image, and a duplicate create must not eat it.
                // Only the image goes: `dir` may be a durable tenant's too.
                let _ = std::fs::remove_dir_all(DsMatrix::spill_image(dir));
            }
        }
        let miner = if recovering {
            StreamMiner::recover(config)?
        } else {
            StreamMiner::new(config)?
        };
        let session = Arc::new(Session::new(
            tenant.to_string(),
            miner,
            spill_dir,
            durable,
            &self.shared,
        ));
        sessions.insert(tenant.to_string(), Arc::clone(&session));
        drop(sessions);
        self.shared.enforce();
        Ok(session)
    }

    /// Looks a live tenant up.
    pub fn get(&self, tenant: &str) -> Result<Arc<Session>> {
        lock_unpoisoned(&self.shared.sessions)
            .get(tenant)
            .cloned()
            .ok_or_else(|| FsmError::unknown_tenant(tenant))
    }

    /// Removes a tenant from the registry.  In-flight operations on clones
    /// of its [`Arc<Session>`] complete normally; the session's resources
    /// (worker-pool access aside, which is shared) are freed when the last
    /// clone drops — including its budget lease, whose grant flows back to
    /// the surviving tenants.
    ///
    /// A volatile tenant's spill image (`spill_root/<tenant>/`) is removed
    /// with it, so a retained [`Arc<Session>`] of a dropped tenant that was
    /// spilled at the time can no longer thaw.  A durable tenant's directory
    /// is left alone: it is what [`SessionRegistry::recover_tenant`] needs.
    pub fn drop_tenant(&self, tenant: &str) -> Result<()> {
        let mut sessions = lock_unpoisoned(&self.shared.sessions);
        let session = sessions
            .remove(tenant)
            .ok_or_else(|| FsmError::unknown_tenant(tenant))?;
        // Still under the sessions lock, like the cleanup in `admit`: a
        // same-name successor cannot be created (and spill) until this is
        // done.
        session.discard_spill_image();
        Ok(())
    }

    /// Live tenant ids, sorted.
    pub fn tenants(&self) -> Vec<String> {
        lock_unpoisoned(&self.shared.sessions)
            .keys()
            .cloned()
            .collect()
    }

    /// Every tenant's id and lifecycle status, sorted by id — what the
    /// service's `list` verb reports.
    pub fn statuses(&self) -> Vec<(String, SessionStatus)> {
        self.shared
            .sessions()
            .into_iter()
            .map(|(tenant, session)| (tenant, session.status()))
            .collect()
    }

    /// Applies the resident-set policy now.  Normally unnecessary — every
    /// completed session operation triggers an opportunistic sweep — but
    /// deterministic for tests and operators.
    pub fn enforce_residency(&self) {
        self.shared.enforce();
    }

    /// Tenant ids with durable state under the registry's durable root —
    /// what [`SessionRegistry::recover_tenant`] can resurrect after a crash.
    /// Empty without a durable root; ids that fail validation (a stray
    /// directory) are skipped.
    pub fn durable_tenants(&self) -> Result<Vec<String>> {
        let durable_root = self.shared.config.durable_root.as_ref();
        let Some(root) = durable_root.filter(|root| root.exists()) else {
            return Ok(Vec::new());
        };
        let mut tenants = Vec::new();
        for entry in std::fs::read_dir(root)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if entry.file_type()?.is_dir() && validate_tenant_id(&name).is_ok() {
                tenants.push(name);
            }
        }
        tenants.sort();
        Ok(tenants)
    }
}

impl Shared {
    /// The tenant table, copied out so that no session lock nests in it.
    fn sessions(&self) -> Vec<(String, Arc<Session>)> {
        lock_unpoisoned(&self.sessions)
            .iter()
            .map(|(tenant, session)| (tenant.clone(), Arc::clone(session)))
            .collect()
    }

    /// Spills cold tenants until the resident set fits the configured caps.
    /// `try_lock` on the sweep hand keeps this single-flight and keeps the
    /// triggering request from ever blocking on another tenant's spill; a
    /// hand poisoned by a panic in an earlier sweep's spill still sweeps.
    fn enforce(&self) {
        if self.config.max_resident.is_none() && self.config.max_resident_bytes.is_none() {
            return;
        }
        let Some(mut hand) = try_lock_unpoisoned(&self.sweep) else {
            return;
        };
        // Tenants already tried this sweep (spilled, or failed to): never
        // re-selected, so an unspillable resident set terminates the loop.
        let mut attempted = BTreeSet::new();
        loop {
            let sessions = self.sessions();
            let mut resident = 0usize;
            let mut resident_bytes = 0usize;
            for (_, session) in &sessions {
                let lifecycle = &session.control().lifecycle;
                if lifecycle.state != Phase::Spilled {
                    resident += 1;
                    resident_bytes += lifecycle.resident_bytes;
                }
            }
            let over = self.config.max_resident.is_some_and(|cap| resident > cap)
                || self
                    .config
                    .max_resident_bytes
                    .is_some_and(|cap| resident_bytes > cap);
            if !over {
                return;
            }
            let Some(victim) = Self::select_victim(&sessions, &mut hand, &attempted) else {
                return;
            };
            attempted.insert(victim.tenant().to_string());
            // A failed spill (I/O error) or a victim whose window is held
            // (mid-operation, so its touch bit is stale; and the triggering
            // request must never wait out another tenant's mine) leaves the
            // tenant resident; `attempted` stops us retrying it this sweep.
            let Some(window) = try_lock_unpoisoned(&victim.window) else {
                continue;
            };
            let _ = victim.spill_window(window);
        }
    }

    /// One clock rotation, second-chance style: touched residents lose
    /// their bit (and demote `Active → Idle`); the first cold, spillable
    /// resident past the hand is the victim.  Two full cycles guarantee a
    /// pick when any eligible session exists.
    fn select_victim(
        sessions: &[(String, Arc<Session>)],
        hand: &mut Option<String>,
        attempted: &BTreeSet<String>,
    ) -> Option<Arc<Session>> {
        let start = hand
            .as_ref()
            .and_then(|cursor| sessions.iter().position(|(tenant, _)| tenant >= cursor))
            .unwrap_or(0);
        for step in 0..sessions.len() * 2 {
            let index = (start + step) % sessions.len();
            let (tenant, session) = &sessions[index];
            if attempted.contains(tenant) || session.spill_dir.is_none() {
                continue;
            }
            let lifecycle = &mut session.control().lifecycle;
            // Spilled and draining tenants have nothing to give; a touched
            // resident spends its second chance (the hand passes).
            if !matches!(lifecycle.state, Phase::Active | Phase::Idle)
                || lifecycle.step(Event::HandPasses)
            {
                continue;
            }
            *hand = Some(sessions[(index + 1) % sessions.len()].0.clone());
            return Some(Arc::clone(session));
        }
        None
    }
}

/// The tenants a registry still holds go the way of
/// [`SessionRegistry::drop_tenant`]: their volatile spill images have no
/// owner once the table is gone.
impl Drop for Shared {
    fn drop(&mut self) {
        let sessions = self.sessions.get_mut().unwrap_or_else(|p| p.into_inner());
        for session in sessions.values() {
            session.discard_spill_image();
        }
    }
}

impl std::fmt::Debug for SessionRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionRegistry")
            .field("tenants", &self.tenants())
            .field("exec", &self.shared.config.exec)
            .finish()
    }
}

/// Accepts `[A-Za-z0-9_-]{1,64}` — ids double as durable directory names
/// and wire-protocol tokens, so nothing path- or whitespace-like gets in.
pub fn validate_tenant_id(tenant: &str) -> Result<()> {
    if tenant.is_empty() || tenant.len() > SessionRegistry::MAX_TENANT_ID_LEN {
        return Err(FsmError::config(format!(
            "tenant id must be 1..={} characters, got {}",
            SessionRegistry::MAX_TENANT_ID_LEN,
            tenant.len()
        )));
    }
    if let Some(bad) = tenant
        .chars()
        .find(|c| !(c.is_ascii_alphanumeric() || *c == '_' || *c == '-'))
    {
        return Err(FsmError::config(format!(
            "tenant id may only contain [A-Za-z0-9_-], got {bad:?}"
        )));
    }
    Ok(())
}

/// What [`Session::ingest`] did with the batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestOutcome {
    /// The batch reached the window immediately (possibly after draining
    /// earlier queued batches); the slide outcome is the window's.
    Applied(SlideOutcome),
    /// The window was busy (another caller mining or recovering); the batch
    /// parked in the ingest queue and will be applied, in order, by the next
    /// caller that acquires the window.
    Queued,
}

/// Where a session is in its residency lifecycle (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum LifecycleState {
    /// Window resident and recently touched.
    Active = 0,
    /// Window resident; the clock hand passed without a touch since the
    /// last rotation — the next pass spills it.
    Idle = 1,
    /// Mid-transition: spilling or thawing under the window lock.
    Draining = 2,
    /// Window serialised to disk; the next request thaws it transparently.
    Spilled = 3,
}

impl LifecycleState {
    /// Every state with its name, indexed by its wire code.
    const TABLE: [(Self, &'static str); 4] = [
        (Self::Active, "active"),
        (Self::Idle, "idle"),
        (Self::Draining, "draining"),
        (Self::Spilled, "spilled"),
    ];

    /// Stable lower-case name (wire protocol, CLI output).
    pub fn as_str(self) -> &'static str {
        Self::TABLE[self as usize].1
    }

    /// Stable single-byte wire encoding.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`LifecycleState::code`].
    pub fn from_code(code: u8) -> Option<Self> {
        Self::TABLE.get(usize::from(code)).map(|&(state, _)| state)
    }
}

impl std::fmt::Display for LifecycleState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A point-in-time snapshot of one session's lifecycle bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionStatus {
    /// Current lifecycle state.
    pub state: LifecycleState,
    /// Bytes of resident state — the window and, for a delta tenant, its
    /// maintained pattern state ([`StreamMiner::resident_bytes`]); `0` while
    /// spilled.
    pub resident_bytes: u64,
    /// Transparent thaws performed over the session's lifetime.
    pub thaws: u64,
    /// Total nanoseconds spent in those thaws (the thawing latency the
    /// service reports; divide by [`SessionStatus::thaws`] for the mean).
    pub thaw_nanos: u64,
}

/// One tenant: one sliding window, its miner configuration, and its
/// delta/durable state, shareable across threads.
///
/// Created through [`SessionRegistry::create_tenant`] /
/// [`SessionRegistry::recover_tenant`]; all methods take `&self`.  The
/// window may be resident ([`StreamMiner`]) or spilled to disk — every
/// entry point re-hydrates it transparently, which is why the miner-facing
/// methods return [`Result`].
pub struct Session {
    tenant: String,
    exec: Exec,
    /// Edges of the catalog the tenant was created with.
    catalog_edges: usize,
    max_pending: usize,
    /// The window — live or spilled.  Held only for the duration of one
    /// operation (an ingest drain, one mine, a spill or thaw); producers
    /// meeting a held lock park their batches in the pending queue instead
    /// of blocking on it.
    window: Mutex<Window>,
    /// Lifecycle, pending queue and publication slot, each touched for a
    /// few field updates.  Lock order: `window` before `control`; never the
    /// reverse.
    control: Mutex<Control>,
    /// Where this tenant spills: `spill_root/<tenant>/` for volatile
    /// tenants, the durable directory for durable ones, `None` when the
    /// tenant is pinned resident (volatile, no spill root configured).
    spill_dir: Option<PathBuf>,
    /// Whether `spill_dir` is the tenant's durable directory — state that
    /// outlives the tenant — rather than a disposable image directory.
    durable: bool,
    /// Back-pointer for sweep triggering.
    shared: Weak<Shared>,
    /// Signalled on every publication; subscribers wait on `control`.
    publish_signal: Condvar,
}

/// The two residency states of a window, behind [`Session::window`]; a
/// spilled one keeps the miner configuration a thaw needs (catalog cloned
/// back in: the miner moves it out at build time).
enum Window {
    // Boxed: a resident miner is ~1.5 KiB, a spilled stub a fraction of
    // that — keep the enum small so the mutex guard stays cheap to move.
    Live(Box<StreamMiner>),
    Spilled(Box<MinerConfig>),
}

/// Everything behind [`Session::control`].
#[derive(Default)]
struct Control {
    lifecycle: Lifecycle,
    /// Bounded arrival-order ingest queue (see the module docs).
    pending: VecDeque<Batch>,
    /// Monotone publication counter; `0` = nothing published yet.
    seq: u64,
    /// The latest mine-on-slide publication.
    result: Option<MiningResult>,
    subscribers: usize,
}

/// Residency bookkeeping, written only by [`Lifecycle::step`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Lifecycle {
    state: Phase,
    /// Clock-sweep reference bit: set on every completed operation, cleared
    /// by a passing hand.
    touched: bool,
    resident_bytes: usize,
    thaws: u64,
    thaw_nanos: u64,
    /// Individual thaw latencies (nanoseconds), capped at
    /// [`Lifecycle::THAW_SAMPLE_CAP`] — enough for the percentiles the repo
    /// benchmark reports (`core.session.thaw_us`, `thaw_p95_us`) without
    /// unbounded growth.
    thaw_samples: Vec<u64>,
}

/// [`LifecycleState`] with `Draining` split by direction, so that only the
/// transition that began a drain can end it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Phase {
    #[default]
    Active,
    Idle,
    Spilling,
    Spilled,
    Thawing,
}

/// What happened to a session; [`Lifecycle::step`] maps it to a state change.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// An operation completed, leaving the window this many bytes big.
    Touch(usize),
    HandPasses,
    SpillBegun,
    SpillDone,
    SpillFailed,
    ThawBegun,
    /// The thawed window's bytes, and the thaw's nanoseconds.
    ThawDone(usize, u64),
    ThawFailed,
}

impl Lifecycle {
    /// Per-session cap on retained thaw-latency samples.
    const THAW_SAMPLE_CAP: usize = 1024;

    fn public_state(&self) -> LifecycleState {
        match self.state {
            Phase::Active => LifecycleState::Active,
            Phase::Idle => LifecycleState::Idle,
            Phase::Spilling | Phase::Thawing => LifecycleState::Draining,
            Phase::Spilled => LifecycleState::Spilled,
        }
    }

    /// The one transition function (the table in the module docs): returns
    /// whether `event` applied, and one that does not changes nothing.
    fn step(&mut self, event: Event) -> bool {
        match (self.state, event) {
            (Phase::Active | Phase::Idle, Event::Touch(resident_bytes)) => {
                self.state = Phase::Active;
                self.touched = true;
                self.resident_bytes = resident_bytes;
            }
            (Phase::Active | Phase::Idle, Event::HandPasses) if self.touched => {
                self.state = Phase::Idle;
                self.touched = false;
            }
            (Phase::Active | Phase::Idle, Event::SpillBegun) => self.state = Phase::Spilling,
            (Phase::Spilling, Event::SpillDone) => {
                self.state = Phase::Spilled;
                self.touched = false;
                self.resident_bytes = 0;
            }
            (Phase::Spilling, Event::SpillFailed) => self.state = Phase::Active,
            (Phase::Spilled, Event::ThawBegun) => self.state = Phase::Thawing,
            (Phase::Thawing, Event::ThawDone(resident_bytes, nanos)) => {
                self.state = Phase::Active;
                // Counted resident at once — waiting for the operation's
                // touch would let a concurrent sweep see this session
                // resident with 0 bytes.
                self.resident_bytes = resident_bytes;
                self.thaws += 1;
                self.thaw_nanos += nanos;
                if self.thaw_samples.len() < Self::THAW_SAMPLE_CAP {
                    self.thaw_samples.push(nanos);
                }
            }
            (Phase::Thawing, Event::ThawFailed) => self.state = Phase::Spilled,
            _ => return false,
        }
        true
    }
}

impl Session {
    fn new(
        tenant: String,
        miner: StreamMiner,
        spill_dir: Option<PathBuf>,
        durable: bool,
        shared: &Arc<Shared>,
    ) -> Self {
        Self {
            tenant,
            exec: shared.config.exec.clone(),
            catalog_edges: miner.catalog().num_edges(),
            max_pending: shared.config.max_pending_batches.max(1),
            control: Mutex::new(Control {
                lifecycle: Lifecycle {
                    touched: true,
                    resident_bytes: miner.resident_bytes(),
                    ..Lifecycle::default()
                },
                ..Control::default()
            }),
            window: Mutex::new(Window::Live(Box::new(miner))),
            spill_dir,
            durable,
            shared: Arc::downgrade(shared),
            publish_signal: Condvar::new(),
        }
    }

    /// This session's tenant id.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Number of edges in the catalog the tenant was created (or
    /// recovered) with: the ids `0..catalog_edges()` a batch may name.
    /// Every ingest entry point — [`Session::ingest`] and
    /// [`Session::ingest_encoded`], applied or queued — enforces it,
    /// refusing a batch naming any other id with
    /// [`FsmError::UnknownEdge`] before the window grows a row (and its
    /// support and row tables) up to it.
    pub fn catalog_edges(&self) -> usize {
        self.catalog_edges
    }

    /// Current lifecycle state.
    pub fn state(&self) -> LifecycleState {
        self.status().state
    }

    /// Lifecycle bookkeeping snapshot: state, resident bytes, thaw stats.
    pub fn status(&self) -> SessionStatus {
        let lifecycle = &self.control().lifecycle;
        SessionStatus {
            state: lifecycle.public_state(),
            resident_bytes: lifecycle.resident_bytes as u64,
            thaws: lifecycle.thaws,
            thaw_nanos: lifecycle.thaw_nanos,
        }
    }

    /// Individual thaw latencies in nanoseconds (capped retention; see
    /// [`SessionStatus`] for the running totals).
    pub fn thaw_latencies(&self) -> Vec<u64> {
        self.control().lifecycle.thaw_samples.clone()
    }

    /// Ingests one batch: applied immediately when the window is free
    /// (thawing it first if spilled), queued (bounded) when it is busy,
    /// [`FsmError::Backpressure`] when the queue is full — see the module
    /// docs for the exact protocol.  A batch naming an edge id outside the
    /// catalog ([`Session::catalog_edges`]) is refused with
    /// [`FsmError::UnknownEdge`] on either path, and changes nothing.
    pub fn ingest(&self, batch: &Batch) -> Result<IngestOutcome> {
        self.ingest_incoming(Incoming::Batch(batch))
    }

    /// [`Session::ingest`] for a batch payload as [`fsm_dsmatrix::encode_batch`]
    /// lays it out — what `fsmd` receives.  An applied payload is checked
    /// and transposed in one pass ([`StreamMiner::ingest`]) and, on a
    /// durable tenant, logged as received; one that has to wait behind a
    /// busy window is decoded into a [`Batch`] to queue.  A malformed
    /// payload is refused as [`fsm_dsmatrix::decode_batch`] refuses it
    /// ([`FsmError::CorruptArtifact`]), an id outside the catalog with
    /// [`FsmError::UnknownEdge`]; a refused payload changes nothing.
    pub fn ingest_encoded(&self, payload: &[u8]) -> Result<IngestOutcome> {
        self.ingest_incoming(Incoming::Encoded(payload))
    }

    fn ingest_incoming(&self, incoming: Incoming<'_>) -> Result<IngestOutcome> {
        let Some(window) = try_lock_unpoisoned(&self.window) else {
            return self.enqueue(incoming);
        };
        self.operate(window, |miner| {
            let outcome = miner.ingest(incoming, self.catalog_edges)?;
            self.publish(miner)?;
            Ok(IngestOutcome::Applied(outcome))
        })
    }

    /// Parks a batch behind a busy window — decoded, if it is a payload,
    /// and checked against the catalog here, on this rare path, since the
    /// window's one-pass transposer is behind the lock.
    fn enqueue(&self, incoming: Incoming<'_>) -> Result<IngestOutcome> {
        let batch = match incoming {
            Incoming::Batch(batch) => batch.clone(),
            Incoming::Encoded(payload) => decode_batch(payload)?,
        };
        if let Some(edge) = batch
            .max_edge()
            .filter(|edge| edge.index() >= self.catalog_edges)
        {
            return Err(FsmError::UnknownEdge { edge: edge.0 });
        }
        let mut control = self.control();
        if control.pending.len() >= self.max_pending {
            return Err(FsmError::backpressure(&self.tenant));
        }
        control.pending.push_back(batch);
        Ok(IngestOutcome::Queued)
    }

    /// Mines the current window (thawing it if spilled and draining any
    /// queued ingests first) under the registry's executor.  Equivalent to
    /// [`StreamMiner::mine`] on a standalone miner fed the same batches.
    pub fn mine(&self) -> Result<MiningResult> {
        self.operate(lock_unpoisoned(&self.window), |miner| {
            miner.mine_with(&self.exec)
        })
    }

    /// Registers a mine-on-every-slide consumer; see the module docs.
    /// Publication work is only performed while at least one subscription
    /// is alive.  Subscribing does not thaw a spilled session — the next
    /// slide (an ingest) does, and publishes as usual.
    pub fn subscribe(self: &Arc<Self>) -> Subscription {
        let mut control = self.control();
        control.subscribers += 1;
        Subscription {
            session: Arc::clone(self),
            last_seen: control.seq,
        }
    }

    /// Runs `f` under the window lock after thawing (if spilled) and
    /// draining queued ingests — the escape hatch for callers needing
    /// [`StreamMiner`] surface the session does not wrap (recovery reports,
    /// memory accounting).
    pub fn with_miner<R>(&self, f: impl FnOnce(&mut StreamMiner) -> R) -> Result<R> {
        self.operate(lock_unpoisoned(&self.window), |miner| Ok(f(miner)))
    }

    /// One operation on the window: thaw it if spilled, drain the queued
    /// ingests, run `op`, then — with the window released — touch and give
    /// the registry a chance to re-balance the resident set (it `try_lock`s
    /// the sweep hand, so this never blocks the completing request).  A
    /// failed thaw leaves the session spilled and surfaces the error (a
    /// proven-corrupt image was already deleted down in the matrix layer,
    /// so the operator can drop and recreate the tenant).
    fn operate<R>(
        &self,
        mut window: MutexGuard<'_, Window>,
        op: impl FnOnce(&mut StreamMiner) -> Result<R>,
    ) -> Result<R> {
        if let (Window::Spilled(config), Some(dir)) = (&*window, &self.spill_dir) {
            self.control().lifecycle.step(Event::ThawBegun);
            let started = Instant::now();
            let miner = StreamMiner::thaw((**config).clone(), dir).inspect_err(|_| {
                self.control().lifecycle.step(Event::ThawFailed);
            })?;
            let nanos = started.elapsed().as_nanos() as u64;
            let done = Event::ThawDone(miner.resident_bytes(), nanos);
            self.control().lifecycle.step(done);
            *window = Window::Live(Box::new(miner));
        }
        let Window::Live(miner) = &mut *window else {
            unreachable!("window was thawed above")
        };
        self.drain_into(miner)?;
        let value = op(miner)?;
        let resident_bytes = miner.resident_bytes();
        drop(window);
        // A sweep may have spilled the session since: the touch is then moot.
        self.control().lifecycle.step(Event::Touch(resident_bytes));
        if let Some(shared) = self.shared.upgrade() {
            shared.enforce();
        }
        Ok(value)
    }

    /// Spills the window to disk: drains the pending queue (publishing to
    /// subscribers exactly as a normal drain would), hibernates the miner
    /// ([`StreamMiner::hibernate`]) and drops the resident state — its
    /// budget lease flows back to the governor.  Returns `Ok(false)` when
    /// there is nothing to do: already spilled, or the tenant is pinned
    /// resident (volatile with no spill root).
    ///
    /// Blocks on the window lock, so a spill racing an in-flight mine
    /// simply waits for the mine (and the drain that follows it) to finish.
    pub fn spill(&self) -> Result<bool> {
        self.spill_window(lock_unpoisoned(&self.window))
    }

    fn spill_window(&self, mut window: MutexGuard<'_, Window>) -> Result<bool> {
        let (Some(dir), Window::Live(miner)) = (&self.spill_dir, &mut *window) else {
            return Ok(false);
        };
        self.control().lifecycle.step(Event::SpillBegun);
        let sealed = self.drain_into(miner).and_then(|_| miner.hibernate(dir));
        if let Err(err) = sealed {
            self.control().lifecycle.step(Event::SpillFailed);
            return Err(err);
        }
        let mut config = miner.config().clone();
        config.catalog = Some(miner.catalog().clone());
        *window = Window::Spilled(Box::new(config));
        // Still under the window lock: a request thawing the window in a
        // gap would find the lifecycle Spilling, where thaw events do not
        // apply, and this step would then mark a live window Spilled.
        self.control().lifecycle.step(Event::SpillDone);
        Ok(true)
    }

    /// Removes a volatile tenant's spill image directory and the then-empty
    /// tenant directory (best effort; a durable tenant's files — which may
    /// share `spill_root/<tenant>/`, outside the image — are never touched).
    /// Called by the registry as the session leaves the tenant table, not
    /// from `Drop`: a stale `Arc<Session>` outliving a same-name re-creation
    /// would unlink the new tenant's image.
    fn discard_spill_image(&self) {
        if self.durable {
            return;
        }
        if let Some(dir) = &self.spill_dir {
            let _ = std::fs::remove_dir_all(DsMatrix::spill_image(dir));
            let _ = std::fs::remove_dir(dir);
        }
    }

    /// Queued batches not yet applied to the window.
    pub fn pending_batches(&self) -> usize {
        self.control().pending.len()
    }

    fn control(&self) -> MutexGuard<'_, Control> {
        lock_unpoisoned(&self.control)
    }

    /// Applies every queued batch in arrival order; returns the last slide
    /// outcome (`None` when the queue was empty).  Publishes to subscribers
    /// after any slide.
    fn drain_into(&self, miner: &mut StreamMiner) -> Result<Option<SlideOutcome>> {
        let mut last = None;
        loop {
            let Some(batch) = self.control().pending.pop_front() else {
                break;
            };
            last = Some(miner.ingest(Incoming::Batch(&batch), self.catalog_edges)?);
        }
        if last.is_some() {
            self.publish(miner)?;
        }
        Ok(last)
    }

    /// Mines the just-slid window — the mine [`Session::mine`] would run —
    /// and publishes the result, if anyone subscribes.
    fn publish(&self, miner: &mut StreamMiner) -> Result<()> {
        if self.control().subscribers == 0 {
            return Ok(());
        }
        let result = miner.mine_with(&self.exec)?;
        let mut control = self.control();
        control.seq += 1;
        control.result = Some(result);
        self.publish_signal.notify_all();
        Ok(())
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("tenant", &self.tenant)
            .field("state", &self.state())
            .field("pending", &self.pending_batches())
            .finish()
    }
}

/// A mine-on-every-slide consumer handle (see [`Session::subscribe`]).
#[derive(Debug)]
pub struct Subscription {
    session: Arc<Session>,
    last_seen: u64,
}

impl Subscription {
    /// The newest published result this handle has not seen yet, if any.
    /// Slides between polls coalesce: only the latest epoch's result is
    /// retained, mirroring how a dashboard consumes a stream.
    pub fn poll(&mut self) -> Option<MiningResult> {
        let control = self.session.control();
        if control.seq == self.last_seen {
            return None;
        }
        self.last_seen = control.seq;
        control.result.clone()
    }

    /// Blocks until a result newer than the last seen one is published,
    /// then returns it.
    pub fn wait(&mut self) -> MiningResult {
        let last_seen = self.last_seen;
        let control = self
            .session
            .publish_signal
            .wait_while(self.session.control(), |c| c.seq == last_seen)
            .unwrap_or_else(|p| p.into_inner());
        self.last_seen = control.seq;
        control
            .result
            .clone()
            .expect("every publication carries its result")
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        let mut control = self.session.control();
        control.subscribers = control.subscribers.saturating_sub(1);
    }
}

fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|p| p.into_inner())
}

/// `None` only while another thread holds `mutex`: a lock a panic left
/// poisoned is free (the holder is gone), as [`lock_unpoisoned`] treats it.
fn try_lock_unpoisoned<T>(mutex: &Mutex<T>) -> Option<MutexGuard<'_, T>> {
    match mutex.try_lock() {
        Ok(guard) => Some(guard),
        Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::Algorithm;
    use fsm_storage::TempDir;
    use fsm_types::{EdgeCatalog, MinSup, Transaction};

    fn tenant_config() -> MinerConfig {
        MinerConfig {
            algorithm: Algorithm::DirectVertical,
            window: fsm_stream::WindowConfig::new(2).unwrap(),
            min_support: MinSup::absolute(2),
            catalog: Some(EdgeCatalog::complete(4)),
            ..MinerConfig::default()
        }
    }

    fn paper_batches() -> Vec<Batch> {
        let e = |raw: &[u32]| Transaction::from_raw(raw.iter().copied());
        vec![
            Batch::from_transactions(0, vec![e(&[2, 3, 5]), e(&[0, 4, 5]), e(&[0, 2, 5])]),
            Batch::from_transactions(1, vec![e(&[0, 2, 3, 5]), e(&[0, 3, 4, 5]), e(&[0, 1, 2])]),
            Batch::from_transactions(2, vec![e(&[0, 2, 5]), e(&[0, 2, 3, 5]), e(&[1, 2, 3])]),
        ]
    }

    /// Holds `session`'s window on another thread — ingests queue meanwhile
    /// — until the returned closure is called.
    fn hold_window(session: &Arc<Session>) -> impl FnOnce() {
        let hostage = Arc::clone(session);
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let (ready_tx, ready_rx) = std::sync::mpsc::channel::<()>();
        let holder = std::thread::spawn(move || {
            hostage
                .with_miner(|_| {
                    ready_tx.send(()).unwrap();
                    rx.recv().unwrap();
                })
                .unwrap();
        });
        ready_rx.recv().unwrap();
        move || {
            tx.send(()).unwrap();
            holder.join().unwrap();
        }
    }

    #[test]
    fn tenants_are_isolated_and_match_standalone_miners() {
        let registry = SessionRegistry::new(RegistryConfig::default());
        let a = registry.create_tenant("a", tenant_config(), false).unwrap();
        let b = registry.create_tenant("b", tenant_config(), false).unwrap();
        let batches = paper_batches();
        // Interleave: a gets all three batches, b only the first.
        a.ingest(&batches[0]).unwrap();
        b.ingest(&batches[0]).unwrap();
        a.ingest(&batches[1]).unwrap();
        a.ingest(&batches[2]).unwrap();
        let mut standalone_a = StreamMiner::new(tenant_config()).unwrap();
        let mut standalone_b = StreamMiner::new(tenant_config()).unwrap();
        for batch in &batches {
            standalone_a.ingest_batch(batch).unwrap();
        }
        standalone_b.ingest_batch(&batches[0]).unwrap();
        assert!(a
            .mine()
            .unwrap()
            .same_patterns_as(&standalone_a.mine().unwrap()));
        assert!(b
            .mine()
            .unwrap()
            .same_patterns_as(&standalone_b.mine().unwrap()));
    }

    #[test]
    fn registry_rejects_bad_ids_duplicates_and_reserved_config() {
        let registry = SessionRegistry::new(RegistryConfig::default());
        assert!(registry.create_tenant("", tenant_config(), false).is_err());
        assert!(registry
            .create_tenant("a/../b", tenant_config(), false)
            .is_err());
        assert!(registry
            .create_tenant(&"x".repeat(65), tenant_config(), false)
            .is_err());
        registry
            .create_tenant("dup", tenant_config(), false)
            .unwrap();
        assert!(matches!(
            registry.create_tenant("dup", tenant_config(), false),
            Err(FsmError::TenantExists(_))
        ));
        let mut config = tenant_config();
        config.durable_dir = Some("/tmp/evil".into());
        assert!(registry.create_tenant("evil", config, false).is_err());
        assert!(matches!(
            registry.get("missing"),
            Err(FsmError::UnknownTenant(_))
        ));
        registry.drop_tenant("dup").unwrap();
        assert!(registry.get("dup").is_err());
    }

    #[test]
    fn full_queue_reports_backpressure_and_drains_in_order() {
        let registry = SessionRegistry::new(RegistryConfig {
            max_pending_batches: 2,
            ..RegistryConfig::default()
        });
        let session = registry.create_tenant("t", tenant_config(), false).unwrap();
        let batches = paper_batches();
        // Hold the window hostage on another thread so ingests queue.
        let release = hold_window(&session);
        assert_eq!(session.ingest(&batches[0]).unwrap(), IngestOutcome::Queued);
        assert_eq!(session.ingest(&batches[1]).unwrap(), IngestOutcome::Queued);
        assert!(matches!(
            session.ingest(&batches[2]),
            Err(FsmError::Backpressure { .. })
        ));
        release();
        // The third batch applies now; the queued two drain first, in order.
        assert!(matches!(
            session.ingest(&batches[2]).unwrap(),
            IngestOutcome::Applied(_)
        ));
        assert_eq!(session.pending_batches(), 0);
        let mut standalone = StreamMiner::new(tenant_config()).unwrap();
        for batch in &batches {
            standalone.ingest_batch(batch).unwrap();
        }
        assert!(session
            .mine()
            .unwrap()
            .same_patterns_as(&standalone.mine().unwrap()));
    }

    #[test]
    fn an_ingest_past_the_catalog_is_refused_on_every_path_and_changes_nothing() {
        // A `complete(4)` catalog has 6 edges.  An id past it must not reach
        // the window: applied, it would grow a row, its support counter and
        // its row tables up to the id, and the next mine would report a
        // pattern on an edge the catalog does not have.
        let registry = SessionRegistry::new(RegistryConfig::default());
        let session = registry.create_tenant("t", tenant_config(), false).unwrap();
        assert_eq!(session.catalog_edges(), 6);
        session.ingest(&paper_batches()[0]).unwrap();
        let resident = session.status().resident_bytes;
        let past = Batch::from_transactions(1, vec![Transaction::from_raw([1, 50_000])]);
        let at_bound = Batch::from_transactions(1, vec![Transaction::from_raw([0, 6])]);
        let payload = encode(&past);
        let refused = |outcome: Result<IngestOutcome>, edge: u32| {
            assert!(
                matches!(outcome, Err(FsmError::UnknownEdge { edge: e }) if e == edge),
                "{outcome:?}"
            );
        };
        // Applied path: built and encoded.
        refused(session.ingest(&past), 50_000);
        refused(session.ingest(&at_bound), 6);
        refused(session.ingest_encoded(&payload), 50_000);
        assert_eq!(session.status().resident_bytes, resident);
        // Queued path: refused before it is parked, as is a payload cut
        // short.
        let release = hold_window(&session);
        refused(session.ingest(&past), 50_000);
        refused(session.ingest_encoded(&payload), 50_000);
        let cut = session.ingest_encoded(&payload[..payload.len() - 1]);
        assert!(
            matches!(cut, Err(FsmError::CorruptArtifact { .. })),
            "{cut:?}"
        );
        assert_eq!(session.pending_batches(), 0);
        release();
        assert_eq!(session.status().resident_bytes, resident);
        let mine = session.mine().unwrap();
        assert!(mine
            .patterns()
            .iter()
            .all(|p| p.edges.iter().all(|e| e.index() < 6)));
        assert_eq!(session.with_miner(|m| m.window_batches()).unwrap(), 1);
    }

    /// A batch's payload, as `fsmd` receives it.
    fn encode(batch: &Batch) -> Vec<u8> {
        fsm_dsmatrix::encode_batch(batch)
    }

    #[test]
    fn with_miner_reports_a_queued_batch_it_failed_to_apply() {
        let durable_root = TempDir::new("session-drain-error").unwrap();
        let registry = SessionRegistry::new(RegistryConfig {
            durable_root: Some(durable_root.path().to_path_buf()),
            ..RegistryConfig::default()
        });
        let config = MinerConfig {
            backend: fsm_storage::StorageBackend::DiskTemp,
            ..tenant_config()
        };
        let session = registry.create_tenant("t", config, true).unwrap();
        let batches = paper_batches();
        session.ingest(&batches[0]).unwrap();
        // Park a batch behind a held window, then put a plain file where
        // the tenant's segment directory was: the drain's segment write
        // must fail.
        let release = hold_window(&session);
        assert_eq!(session.ingest(&batches[1]).unwrap(), IngestOutcome::Queued);
        release();
        let segments = durable_root.path().join("t").join("segments");
        std::fs::remove_dir_all(&segments).unwrap();
        std::fs::write(&segments, b"").unwrap();
        assert!(
            session.with_miner(|_| ()).is_err(),
            "the queued batch was popped and lost without a word"
        );
        assert_eq!(session.pending_batches(), 0);
    }

    #[test]
    fn subscriptions_publish_on_every_slide() {
        let registry = SessionRegistry::new(RegistryConfig::default());
        let session = registry
            .create_tenant("sub", tenant_config(), false)
            .unwrap();
        let mut subscription = session.subscribe();
        assert!(subscription.poll().is_none());
        let batches = paper_batches();
        let mut standalone = StreamMiner::new(tenant_config()).unwrap();
        for batch in &batches {
            session.ingest(&batch.clone()).unwrap();
            standalone.ingest_batch(batch).unwrap();
            let published = subscription.poll().expect("every slide publishes");
            assert!(published.same_patterns_as(&standalone.mine().unwrap()));
        }
        // A late subscriber only sees publications after it joined.
        let mut late = session.subscribe();
        assert!(late.poll().is_none());
        drop(subscription);
        drop(late);
        // With no subscribers, slides stop publishing.
        let seq_before = session.control().seq;
        session.ingest(&batches[0]).unwrap();
        assert_eq!(session.control().seq, seq_before);
    }

    #[test]
    fn pool_execution_matches_scoped_execution() {
        let pooled = SessionRegistry::new(RegistryConfig {
            exec: Exec::pool(Arc::new(crate::WorkerPool::new(3))),
            ..RegistryConfig::default()
        });
        let scoped = SessionRegistry::new(RegistryConfig::default());
        let a = pooled.create_tenant("t", tenant_config(), false).unwrap();
        let b = scoped.create_tenant("t", tenant_config(), false).unwrap();
        for batch in paper_batches() {
            a.ingest(&batch).unwrap();
            b.ingest(&batch).unwrap();
        }
        assert!(a.mine().unwrap().same_patterns_as(&b.mine().unwrap()));
    }

    #[test]
    fn resident_cap_spills_cold_tenants_and_thaws_on_demand() {
        let spill_root = TempDir::new("session-spill").unwrap();
        let registry = SessionRegistry::new(RegistryConfig {
            max_resident: Some(1),
            spill_root: Some(spill_root.path().to_path_buf()),
            ..RegistryConfig::default()
        });
        let a = registry.create_tenant("a", tenant_config(), false).unwrap();
        let b = registry.create_tenant("b", tenant_config(), false).unwrap();
        let batches = paper_batches();
        a.ingest(&batches[0]).unwrap();
        a.ingest(&batches[1]).unwrap();
        // Touch b repeatedly: the sweep must eventually evict cold a.
        for _ in 0..4 {
            b.ingest(&batches[0]).unwrap();
            registry.enforce_residency();
        }
        assert_eq!(a.state(), LifecycleState::Spilled);
        assert_eq!(a.status().resident_bytes, 0);
        assert!(
            DsMatrix::spill_image(&spill_root.path().join("a")).exists(),
            "volatile spill must leave an image under spill_root/<tenant>/"
        );
        // A request against the spilled tenant thaws it transparently and
        // the output is byte-identical to a never-spilled run.
        a.ingest(&batches[2]).unwrap();
        // (The sweep triggered by a's own touch may already have demoted it
        // back to Idle — resident either way.)
        assert_ne!(a.state(), LifecycleState::Spilled);
        assert!(a.status().thaws >= 1);
        assert!(a.status().resident_bytes > 0);
        let mut standalone = StreamMiner::new(tenant_config()).unwrap();
        for batch in &batches {
            standalone.ingest_batch(batch).unwrap();
        }
        assert!(a
            .mine()
            .unwrap()
            .same_patterns_as(&standalone.mine().unwrap()));
    }

    #[test]
    fn duplicate_create_never_destroys_a_spilled_tenants_image() {
        let spill_root = TempDir::new("session-dup-spill").unwrap();
        let registry = SessionRegistry::new(RegistryConfig {
            spill_root: Some(spill_root.path().to_path_buf()),
            ..RegistryConfig::default()
        });
        let session = registry.create_tenant("t", tenant_config(), false).unwrap();
        let batches = paper_batches();
        session.ingest(&batches[0]).unwrap();
        session.ingest(&batches[1]).unwrap();
        assert!(session.spill().unwrap());
        let artifact = DsMatrix::spill_image(&spill_root.path().join("t"));
        assert!(artifact.exists());
        // The duplicate must bounce off the registry *before* the stale-
        // image cleanup: while spilled, that image is the live tenant's
        // only copy of its window.
        assert!(matches!(
            registry.create_tenant("t", tenant_config(), false),
            Err(FsmError::TenantExists(_))
        ));
        assert!(
            artifact.exists(),
            "duplicate create destroyed a live tenant's spill image"
        );
        let mut standalone = StreamMiner::new(tenant_config()).unwrap();
        standalone.ingest_batch(&batches[0]).unwrap();
        standalone.ingest_batch(&batches[1]).unwrap();
        assert!(session
            .mine()
            .unwrap()
            .same_patterns_as(&standalone.mine().unwrap()));
    }

    #[test]
    fn tenants_without_a_spill_root_are_pinned_resident() {
        let registry = SessionRegistry::new(RegistryConfig {
            max_resident: Some(1),
            ..RegistryConfig::default()
        });
        let a = registry.create_tenant("a", tenant_config(), false).unwrap();
        let b = registry.create_tenant("b", tenant_config(), false).unwrap();
        for _ in 0..4 {
            a.ingest(&paper_batches()[0]).unwrap();
            b.ingest(&paper_batches()[0]).unwrap();
            registry.enforce_residency();
        }
        assert_ne!(a.state(), LifecycleState::Spilled);
        assert_ne!(b.state(), LifecycleState::Spilled);
        assert!(!a.spill().unwrap());
    }

    #[test]
    fn spill_drains_pending_and_preserves_subscriptions() {
        let spill_root = TempDir::new("session-spill-drain").unwrap();
        let registry = SessionRegistry::new(RegistryConfig {
            spill_root: Some(spill_root.path().to_path_buf()),
            ..RegistryConfig::default()
        });
        let session = registry.create_tenant("t", tenant_config(), false).unwrap();
        let mut subscription = session.subscribe();
        let batches = paper_batches();
        session.ingest(&batches[0]).unwrap();
        assert!(subscription.poll().is_some());
        // Park a batch in the queue while the window is held hostage, then
        // spill: the spill must drain (and publish) it before hibernating.
        let release = hold_window(&session);
        assert_eq!(session.ingest(&batches[1]).unwrap(), IngestOutcome::Queued);
        release();
        assert!(session.spill().unwrap());
        assert_eq!(session.state(), LifecycleState::Spilled);
        assert_eq!(session.pending_batches(), 0);
        // The queued batch was published on its way into the spill image.
        let mut standalone = StreamMiner::new(tenant_config()).unwrap();
        standalone.ingest_batch(&batches[0]).unwrap();
        standalone.ingest_batch(&batches[1]).unwrap();
        assert!(subscription
            .poll()
            .expect("drain inside spill publishes")
            .same_patterns_as(&standalone.mine().unwrap()));
        // The armed subscription keeps working across the thaw.
        session.ingest(&batches[2]).unwrap();
        standalone.ingest_batch(&batches[2]).unwrap();
        assert!(subscription
            .poll()
            .expect("post-thaw slide publishes")
            .same_patterns_as(&standalone.mine().unwrap()));
    }

    /// Poisons `mutex` the way a caught panic under it does.
    fn poison<T>(mutex: &Mutex<T>) {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = mutex.lock();
            panic!("a request panics under the lock");
        }));
        assert!(caught.is_err() && mutex.is_poisoned());
    }

    #[test]
    fn an_ingest_after_a_panic_under_the_window_is_applied() {
        let registry = SessionRegistry::new(RegistryConfig::default());
        let session = registry.create_tenant("t", tenant_config(), false).unwrap();
        poison(&session.window);
        for batch in &paper_batches() {
            assert!(matches!(
                session.ingest(batch).unwrap(),
                IngestOutcome::Applied(_)
            ));
        }
        assert_eq!(session.pending_batches(), 0);
    }

    #[test]
    fn a_sweep_after_a_panic_under_the_hand_still_spills() {
        let spill_root = TempDir::new("session-poisoned-hand").unwrap();
        let registry = SessionRegistry::new(RegistryConfig {
            max_resident: Some(1),
            spill_root: Some(spill_root.path().to_path_buf()),
            ..RegistryConfig::default()
        });
        let a = registry.create_tenant("a", tenant_config(), false).unwrap();
        a.ingest(&paper_batches()[0]).unwrap();
        poison(&registry.shared.sweep);
        // Admitting b puts two tenants over a cap of one.
        registry.create_tenant("b", tenant_config(), false).unwrap();
        registry.enforce_residency();
        assert_eq!(a.state(), LifecycleState::Spilled);
    }

    #[test]
    fn a_touch_after_a_racing_spill_leaves_the_tenant_spilled_at_zero_bytes() {
        let spill_root = TempDir::new("session-touch-after-spill").unwrap();
        let registry = SessionRegistry::new(RegistryConfig {
            spill_root: Some(spill_root.path().to_path_buf()),
            ..RegistryConfig::default()
        });
        let session = registry.create_tenant("t", tenant_config(), false).unwrap();
        session.ingest(&paper_batches()[0]).unwrap();
        // An operation releases the window before it touches, so a sweep
        // can spill the tenant in between; the touch then lands here.
        assert!(session.spill().unwrap());
        session.control().lifecycle.step(Event::Touch(648));
        let spilled = SessionStatus {
            state: LifecycleState::Spilled,
            resident_bytes: 0,
            thaws: 0,
            thaw_nanos: 0,
        };
        assert_eq!(session.status(), spilled);
        assert!(!session.control().lifecycle.touched);
    }

    /// Applies every event to `before`, and recursively to each result,
    /// `depth` events deep, checking the lifecycle invariants at each step.
    fn walk_every_sequence(before: &Lifecycle, depth: usize) {
        const EVENTS: [Event; 8] = [
            Event::Touch(7),
            Event::HandPasses,
            Event::SpillBegun,
            Event::SpillDone,
            Event::SpillFailed,
            Event::ThawBegun,
            Event::ThawDone(11, 3),
            Event::ThawFailed,
        ];
        for event in EVENTS {
            let mut after = before.clone();
            let applied = after.step(event);
            let context = || format!("{before:?} --{event:?}--> {after:?}");
            if !applied {
                assert_eq!(&after, before, "{}", context());
            }
            if after.state == Phase::Spilled {
                assert!(after.resident_bytes == 0 && !after.touched, "{}", context());
            }
            if after.state != before.state {
                let entered_by = match after.state {
                    Phase::Spilling => Some(matches!(event, Event::SpillBegun)),
                    Phase::Thawing => Some(matches!(event, Event::ThawBegun)),
                    _ => None,
                };
                let left_by = match before.state {
                    Phase::Spilling => Some(matches!(event, Event::SpillDone | Event::SpillFailed)),
                    Phase::Thawing => {
                        Some(matches!(event, Event::ThawDone(..) | Event::ThawFailed))
                    }
                    _ => None,
                };
                assert_ne!(entered_by, Some(false), "{}", context());
                assert_ne!(left_by, Some(false), "{}", context());
                // Residency changes only through Draining.
                let resident = |phase| matches!(phase, Phase::Active | Phase::Idle);
                let spilled_to_resident = before.state == Phase::Spilled && resident(after.state);
                let resident_to_spilled = resident(before.state) && after.state == Phase::Spilled;
                assert!(
                    !spilled_to_resident && !resident_to_spilled,
                    "{}",
                    context()
                );
            }
            let samples = (after.thaws as usize).min(Lifecycle::THAW_SAMPLE_CAP);
            assert_eq!(after.thaw_samples.len(), samples, "{}", context());
            if depth > 1 {
                walk_every_sequence(&after, depth - 1);
            }
        }
    }

    #[test]
    fn step_keeps_the_lifecycle_invariants_over_every_sequence_of_six_events() {
        let resident = |state, touched| Lifecycle {
            state,
            touched,
            resident_bytes: 5,
            ..Lifecycle::default()
        };
        let cold = |state| Lifecycle {
            state,
            ..Lifecycle::default()
        };
        // Two thaws away from the sample cap: the sixth event crosses it.
        let nearly_capped = Lifecycle {
            thaws: Lifecycle::THAW_SAMPLE_CAP as u64 - 1,
            thaw_samples: vec![1; Lifecycle::THAW_SAMPLE_CAP - 1],
            ..cold(Phase::Spilled)
        };
        let starts = [
            resident(Phase::Active, true),
            resident(Phase::Active, false),
            resident(Phase::Idle, false),
            resident(Phase::Spilling, true),
            resident(Phase::Spilling, false),
            cold(Phase::Spilled),
            cold(Phase::Thawing),
            nearly_capped,
        ];
        for start in &starts {
            walk_every_sequence(start, 6);
        }
    }
}
