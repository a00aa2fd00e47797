//! Workload definitions: what each one sends, to whom, and what the
//! correct answers are.
//!
//! Every workload replays a seeded cycle of [`CYCLE`] pre-generated
//! batches with fresh monotone batch ids.  Because the stream is periodic
//! the window contents are too, so a standalone oracle needs only one mine
//! per cycle position and every served mine is checked against
//! `expected[position mod CYCLE]`.
//!
//! `--seed` decides how the stream *arrives*: the order of the transactions
//! inside every batch, where in the cycle each tenant starts, and the Zipf
//! tenant picker.  *Which* stream a workload replays is fixed by
//! [`DATA_SEED`], the way the paper's experiments fix connect4 or one IBM
//! synthetic file.  Neither reaches the program under test, which only ever
//! sees the batches.  The generators are pinned because mining cost is
//! chaotic in the data: re-seeding them moved `dense_delta`'s p95 by 46 % and
//! its throughput by 25 % between seeds (10 seeds, 10 s runs), far beyond any
//! bound a regression gate could use, while re-seeding the arrival keeps
//! every window's transaction *set* — and so the work per cycle — fixed.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use fsm_core::StreamMiner;
use fsm_datagen::{
    DenseGenerator, GraphModel, GraphModelConfig, GraphStreamConfig, GraphStreamGenerator,
    QuestConfig, QuestGenerator,
};
use fsm_fsmd::server::miner_config;
use fsm_fsmd::TenantSpec;
use fsm_storage::StorageBackend;
use fsm_types::{Batch, EdgeCatalog, EdgeId, FrequentPattern, Result, Transaction};

/// Batches per replay cycle (the issue's K).
pub const CYCLE: usize = 32;
/// Sliding-window size in batches, fixed for every workload.
pub const WINDOW: usize = 5;
/// Shared mining pool size of the server under test, fixed for every
/// workload.
pub const POOL_THREADS: usize = 2;
/// `Algorithm::ALL` index of `DirectVertical`, fixed for every workload.
pub const ALGORITHM: u8 = 4;
/// Seed of the stream generators: the data every run replays.
pub const DATA_SEED: u64 = 1;

/// Which generator a workload's stream comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// IBM-Quest-style market baskets over 60 items on a path catalog.
    Quest,
    /// connect4-like dense records (130 items) on `EdgeCatalog::complete(17)`.
    Dense,
    /// Random-graph-model stream over 24 vertices, remapped by endpoints
    /// onto `EdgeCatalog::complete(24)` so the wire spec can describe it.
    Graph,
}

/// Who sends what to whom.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Routing {
    /// One connection, one tenant: ingest and mine the same window.
    Single,
    /// `connections` generators; each ingests into its own share of the
    /// tenants and mines the *next* connection's share, round-robin.  A
    /// lone connection is its own next: it mines the tenant it just fed.
    Fleet {
        /// Generator threads / TCP connections.
        connections: usize,
        /// Tenants in total (a multiple of `connections`).
        tenants: usize,
    },
    /// One connection; each step's tenant is drawn from a seeded Zipf
    /// picker and both requests go to it.
    Zipf {
        /// Tenants in total.
        tenants: usize,
        /// Zipf exponent.
        exponent: f64,
    },
}

impl Routing {
    /// Generator threads / TCP connections.
    pub fn connections(self) -> usize {
        match self {
            Routing::Fleet { connections, .. } => connections,
            _ => 1,
        }
    }

    /// Tenants in total.
    pub fn tenants(self) -> usize {
        match self {
            Routing::Single => 1,
            Routing::Fleet { tenants, .. } | Routing::Zipf { tenants, .. } => tenants,
        }
    }

    /// Steps after which a connection's schedule repeats itself, when every
    /// position of that period does the same work each time it comes round:
    /// step `i` and step `i + period` send the same batch to the same tenant
    /// and mine the same window.  `None` where a step's work is not a
    /// function of its position: two connections race for the windows they
    /// share, and the Zipf picker never repeats.
    pub fn period(self) -> Option<usize> {
        match self {
            Routing::Single => Some(CYCLE),
            Routing::Fleet {
                connections: 1,
                tenants,
            } => Some(tenants * CYCLE),
            Routing::Fleet { .. } | Routing::Zipf { .. } => None,
        }
    }
}

/// One benchmark workload: stream shape, tenant spec and server posture.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// One line on why this workload exists (which layers it stresses).
    pub why: &'static str,
    /// Input generator.
    pub stream: Stream,
    /// Transactions per batch.
    pub batch_size: usize,
    /// Relative minimum support.
    pub minsup: f64,
    /// Request routing.
    pub routing: Routing,
    /// Disk (`true`) or memory backend.
    pub disk: bool,
    /// Desired chunk-cache budget per tenant (disk backend only).
    pub cache_budget: u64,
    /// WAL + checkpoints under the server's durable root.
    pub durable: bool,
    /// Maintain the pattern set incrementally.
    pub delta: bool,
    /// Process-wide chunk-cache cap, if the server runs a governor.
    pub governor_total: Option<usize>,
    /// Resident-window cap; set together with a spill root.
    pub max_resident: Option<usize>,
    /// Whether `BENCHMARK.json` lists the workload, so that its end-to-end
    /// metrics gate later PRs.  Only workloads whose numbers are steady on a
    /// small shared host are: one connection, a periodic schedule
    /// ([`Routing::period`]) and no `fsync` on the timed path.  The others
    /// are run, verified and reported all the same.
    pub gated: bool,
}

/// Every workload, in report order.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "quest_durable",
        why: "fsmd drive's default posture (disk, durable, cache fits): WAL fsync, segment writes, checkpoints and capture dominate the step; mining is a small share",
        stream: Stream::Quest,
        batch_size: 1000,
        minsup: 0.03,
        routing: Routing::Single,
        disk: true,
        cache_budget: 1 << 20,
        durable: true,
        delta: false,
        governor_total: None,
        max_resident: None,
        gated: false,
    },
    Workload {
        name: "dense_full",
        why: "connect4-like dense stream on the memory backend: core::miners and storage::bitvec kernels dominate the step; capture and storage do little",
        stream: Stream::Dense,
        batch_size: 500,
        minsup: 0.18,
        routing: Routing::Single,
        disk: false,
        cache_budget: 0,
        durable: false,
        delta: false,
        governor_total: None,
        max_resident: None,
        gated: true,
    },
    Workload {
        name: "dense_delta",
        why: "identical stream and spec as dense_full with delta=true: core::delta maintenance replaces re-enumeration; same expected results, so a free cross-check",
        stream: Stream::Dense,
        batch_size: 500,
        minsup: 0.18,
        routing: Routing::Single,
        disk: false,
        cache_budget: 0,
        durable: false,
        delta: true,
        governor_total: None,
        max_resident: None,
        gated: true,
    },
    Workload {
        name: "fleet_disk",
        why: "contention: 2 connections x 8 volatile disk tenants under an under-provisioned governor; the only workload where pool, governor, queued ingests and chunk-cache misses matter",
        stream: Stream::Graph,
        batch_size: 500,
        minsup: 0.05,
        routing: Routing::Fleet {
            connections: 2,
            tenants: 8,
        },
        disk: true,
        cache_budget: 64 << 10,
        durable: false,
        delta: false,
        governor_total: Some(256 << 10),
        max_resident: None,
        gated: false,
    },
    Workload {
        name: "fleet_serial",
        why: "fleet_disk's 8 volatile disk tenants and under-provisioned governor behind one connection: capture, segment writes, chunk-cache misses and the registry, without the race for cores",
        stream: Stream::Graph,
        batch_size: 500,
        minsup: 0.05,
        routing: Routing::Fleet {
            connections: 1,
            tenants: 8,
        },
        disk: true,
        cache_budget: 64 << 10,
        durable: false,
        delta: false,
        governor_total: Some(256 << 10),
        max_resident: None,
        gated: true,
    },
    Workload {
        name: "churn_spill",
        why: "lifecycle: 32 memory tenants under max_resident=8 picked by Zipf(1.3); p50 is the resident-hit path (session + transport), p95 the thaw-plus-victim-spill path",
        stream: Stream::Graph,
        batch_size: 250,
        minsup: 0.05,
        routing: Routing::Zipf {
            tenants: 32,
            exponent: 1.3,
        },
        disk: false,
        cache_budget: 0,
        durable: false,
        delta: false,
        governor_total: None,
        max_resident: Some(8),
        gated: false,
    },
];

/// `--probe churn_durable`: `churn_spill` with durable disk tenants.
/// Reported, never gated — at this commit some ingests after a thaw fail
/// with "WAL append out of order", and the probe is the one-command
/// reproduction for the fix PR.
pub const PROBE_CHURN_DURABLE: Workload = Workload {
    name: "churn_durable",
    why: "probe: churn_spill with durable=true disk tenants under a durable root (spill through checkpoints)",
    stream: Stream::Graph,
    batch_size: 250,
    minsup: 0.05,
    routing: Routing::Zipf {
        tenants: 32,
        exponent: 1.3,
    },
    disk: true,
    cache_budget: 64 << 10,
    durable: true,
    delta: false,
    governor_total: None,
    max_resident: Some(8),
    gated: false,
};

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Tenant id of tenant number `t`.
    pub fn tenant_name(&self, t: usize) -> String {
        format!("t{t:02}")
    }

    /// The wire spec every tenant of this workload is created from.
    pub fn spec(&self, tenant: usize) -> TenantSpec {
        let (catalog_kind, catalog_n) = match self.stream {
            Stream::Quest => (0, QUEST_ITEMS),
            Stream::Dense => (1, DENSE_VERTICES),
            Stream::Graph => (1, GRAPH_VERTICES),
        };
        TenantSpec {
            tenant: self.tenant_name(tenant),
            algorithm: ALGORITHM,
            window_batches: WINDOW as u32,
            minsup_absolute: false,
            minsup: self.minsup.to_bits(),
            catalog_kind,
            catalog_n,
            backend: self.disk as u8,
            cache_budget: self.cache_budget,
            durable: self.durable,
            delta: self.delta,
        }
    }
}

/// Where tenant `t` starts in the batch cycle under `seed`:
/// tenants of one workload hold different windows, and different seeds
/// start the cycle at different batches.
pub fn tenant_offset(seed: u64, t: usize) -> usize {
    let rotation = StdRng::seed_from_u64(seed ^ 0x0ff5_e700).gen_range(0..CYCLE);
    (rotation + t * 7) % CYCLE
}

const QUEST_ITEMS: u32 = 60;
const DENSE_VERTICES: u32 = 17;
const GRAPH_VERTICES: u32 = 24;

/// A workload's generated inputs plus the oracle's answers.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The batch cycle ([`CYCLE`] batches; ids are rewritten per send).
    pub batches: Vec<Batch>,
    /// `expected[i]`: checksum of the patterns of the window whose newest
    /// batch is `batches[i]` (and whose other `WINDOW - 1` batches precede
    /// it cyclically).
    pub expected: Vec<u64>,
    /// The same checksums as a set, for mines whose position is unknown.
    pub expected_set: HashSet<u64>,
}

impl Inputs {
    /// Generates the cycle from `data_seed` ([`DATA_SEED`] in every run),
    /// shuffles the transactions inside every batch by `seed`, and mines the
    /// result with the standalone oracle.
    pub fn generate(workload: &Workload, data_seed: u64, seed: u64) -> Self {
        let mut batches = generate_batches(workload, data_seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_ba7c);
        for batch in &mut batches {
            let mut transactions = batch.transactions().to_vec();
            transactions.shuffle(&mut rng);
            *batch = Batch::from_transactions(batch.id, transactions);
        }
        let expected = oracle(workload, &batches);
        let expected_set = expected.iter().copied().collect();
        Self {
            batches,
            expected,
            expected_set,
        }
    }

    /// The fill phase: feeds tenant `t` the first [`WINDOW`] batches of its
    /// cycle through `ingest` and returns what the filled window must mine to.
    pub fn fill_window(
        &self,
        seed: u64,
        t: usize,
        mut ingest: impl FnMut(&Batch) -> Result<()>,
    ) -> Result<Expect> {
        let offset = tenant_offset(seed, t);
        for i in 0..WINDOW {
            let mut batch = self.batches[(offset + i) % CYCLE].clone();
            batch.id = i as u64;
            ingest(&batch)?;
        }
        Ok(Expect::Position((offset + WINDOW - 1) % CYCLE))
    }

    /// FNV digest of the whole expected list — two workloads with equal
    /// digests expect identical results (`dense_full` / `dense_delta`).
    pub fn oracle_digest(&self) -> u64 {
        let mut hash = Fnv::new();
        for checksum in &self.expected {
            hash.u64(*checksum);
        }
        hash.finish()
    }
}

fn generate_batches(workload: &Workload, seed: u64) -> Vec<Batch> {
    match workload.stream {
        Stream::Quest => QuestGenerator::new(QuestConfig {
            num_items: QUEST_ITEMS,
            avg_transaction_len: 8.0,
            avg_pattern_len: 4.0,
            num_patterns: 30,
            corruption: 0.25,
            seed,
        })
        .generate_batches(CYCLE, workload.batch_size),
        // Items 0..130 are the first 130 edge ids of complete(17) (136
        // edges), so the identity mapping is already "onto the catalog".
        Stream::Dense => DenseGenerator {
            num_items: 130,
            avg_transaction_len: 43.0,
            num_blocks: 8,
            seed,
        }
        .generate_batches(CYCLE, workload.batch_size),
        Stream::Graph => {
            let model = GraphModel::generate(GraphModelConfig {
                num_vertices: GRAPH_VERTICES,
                avg_fanout: 5.0,
                centrality_skew: 0.8,
                seed,
                ..GraphModelConfig::default()
            });
            // The model interns a random subset of vertex pairs in shuffled
            // order; the wire protocol can only name path or complete
            // catalogs, so edges are renamed to their id in complete(24).
            let complete = EdgeCatalog::complete(GRAPH_VERTICES);
            let rename: Vec<EdgeId> = (0..model.catalog().num_edges())
                .map(|e| {
                    let (u, v) = model
                        .catalog()
                        .endpoints(EdgeId::new(e as u32))
                        .expect("edge of the model");
                    complete.lookup(u, v).expect("pair of the complete graph")
                })
                .collect();
            let mut generator = GraphStreamGenerator::new(
                model,
                GraphStreamConfig {
                    avg_edges_per_graph: 6.0,
                    locality: 0.75,
                    batch_size: workload.batch_size,
                    seed,
                },
            );
            generator
                .generate_batches(CYCLE)
                .into_iter()
                .map(|batch| {
                    let transactions = batch
                        .iter()
                        .map(|t| Transaction::from_edges(t.iter().map(|e| rename[e.index()])))
                        .collect();
                    Batch::from_transactions(batch.id, transactions)
                })
                .collect()
        }
    }
}

/// The standalone oracle: a sequential, memory-backed, full re-mining
/// [`StreamMiner`] fed the cycle once plus `WINDOW - 1` wrap-around batches.
/// It never runs delta maintenance, a pool, a disk backend, a registry or a
/// socket, so `dense_delta`'s expected list *is* `dense_full`'s.
fn oracle(workload: &Workload, batches: &[Batch]) -> Vec<u64> {
    let mut config = miner_config(&workload.spec(0)).expect("workload spec is valid");
    config.backend = StorageBackend::Memory;
    config.delta = false;
    config.threads = 1;
    let mut miner = StreamMiner::new(config).expect("oracle miner");
    let mut expected = vec![0; CYCLE];
    for position in 0..CYCLE + WINDOW - 1 {
        let mut batch = batches[position % CYCLE].clone();
        batch.id = position as u64;
        miner.ingest_batch(&batch).expect("oracle ingest");
        if position + 1 >= WINDOW {
            let result = miner.mine().expect("oracle mine");
            expected[position % CYCLE] = checksum(result.patterns());
        }
    }
    expected
}

/// Order-sensitive FNV-1a digest of a pattern list: count, then each
/// pattern's support, edge count and edge ids — everything the wire carries.
pub fn checksum(patterns: &[FrequentPattern]) -> u64 {
    let mut hash = Fnv::new();
    hash.u64(patterns.len() as u64);
    for pattern in patterns {
        hash.u64(pattern.support);
        hash.u64(pattern.edges.len() as u64);
        for edge in pattern.edges.iter() {
            hash.u64(u64::from(edge.0));
        }
    }
    hash.finish()
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// What a step's mine must return.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// The window at this cycle position, exactly.
    Position(usize),
    /// Some full window of the cycle: the mined tenant is fed by another
    /// connection, so its position at mine time is not this thread's to know.
    AnyWindow,
}

/// One closed-loop step: ingest into one tenant, then mine one tenant.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// Tenant the batch goes to.
    pub ingest: usize,
    /// Tenant mined right after.
    pub mine: usize,
    /// Cycle index of the batch to send.
    pub batch: usize,
    /// Fresh batch id (monotone per tenant).
    pub batch_id: u64,
    /// What the mine must return.
    pub expect: Expect,
}

/// The deterministic request schedule of one connection.  Two schedules
/// built from the same `(workload, seed, connection)` yield the same steps,
/// which is what lets every ladder rung replay the served run.
#[derive(Debug, Clone)]
pub struct Schedule {
    workload: Workload,
    connection: usize,
    /// Cycle index of each tenant's first batch.
    offsets: Vec<usize>,
    /// Batches ingested so far, per tenant (fill included).
    ingested: Vec<u64>,
    step: u64,
    rng: StdRng,
    /// Cumulative Zipf weights over tenants (empty unless Zipf routing).
    zipf_cdf: Vec<f64>,
}

impl Schedule {
    /// The schedule of `connection`, positioned right after the fill phase
    /// (every tenant holds `WINDOW` batches).
    pub fn after_fill(workload: &Workload, seed: u64, connection: usize) -> Self {
        let tenants = workload.routing.tenants();
        let zipf_cdf = match workload.routing {
            Routing::Zipf { exponent, .. } => (0..tenants)
                .scan(0.0, |acc, rank| {
                    *acc += 1.0 / ((rank + 1) as f64).powf(exponent);
                    Some(*acc)
                })
                .collect(),
            _ => Vec::new(),
        };
        Self {
            workload: *workload,
            connection,
            offsets: (0..tenants).map(|t| tenant_offset(seed, t)).collect(),
            ingested: vec![WINDOW as u64; tenants],
            step: 0,
            // Decorrelated from the generators, which consume `seed` itself.
            rng: StdRng::seed_from_u64(seed ^ 0x5a17_f00d_0000_0000 ^ connection as u64),
            zipf_cdf,
        }
    }

    /// Cycle position tenant `t`'s window is at now (newest batch index).
    pub fn position(&self, t: usize) -> usize {
        (self.offsets[t] + self.ingested[t] as usize - 1) % CYCLE
    }

    /// Steps handed out so far.
    pub fn steps_taken(&self) -> u64 {
        self.step
    }

    /// Tenants this connection ingests into.
    pub fn owned_tenants(&self) -> Vec<usize> {
        match self.workload.routing {
            Routing::Fleet {
                connections,
                tenants,
            } => {
                let share = tenants / connections;
                (self.connection * share..(self.connection + 1) * share).collect()
            }
            routing => (0..routing.tenants()).collect(),
        }
    }

    /// Undoes the bookkeeping of a step whose ingest the server refused (the
    /// batch never reached the window, so it is sent again next time);
    /// returns what the step's mine may return instead.
    pub fn retract(&mut self, step: &Step) -> Expect {
        self.ingested[step.ingest] -= 1;
        match step.expect {
            Expect::Position(_) => Expect::Position(self.position(step.mine)),
            Expect::AnyWindow => Expect::AnyWindow,
        }
    }

    /// The next step.
    pub fn next_step(&mut self) -> Step {
        let (ingest, mine, known) = match self.workload.routing {
            Routing::Single => (0, 0, true),
            Routing::Fleet {
                connections,
                tenants,
            } => {
                let share = tenants / connections;
                let slot = (self.step as usize) % share;
                let other = (self.connection + 1) % connections;
                // A lone connection mines what it fed itself, so it knows
                // where the window must be.
                let known = connections == 1;
                (self.connection * share + slot, other * share + slot, known)
            }
            Routing::Zipf { .. } => {
                let total = *self.zipf_cdf.last().expect("zipf tenants");
                let ticket = self.rng.gen_range(0.0..total);
                let tenant = self
                    .zipf_cdf
                    .partition_point(|cumulative| *cumulative <= ticket);
                (tenant, tenant, true)
            }
        };
        let batch_id = self.ingested[ingest];
        let batch = (self.offsets[ingest] + batch_id as usize) % CYCLE;
        self.ingested[ingest] += 1;
        self.step += 1;
        Step {
            ingest,
            mine,
            batch,
            batch_id,
            expect: if known {
                Expect::Position(self.position(mine))
            } else {
                Expect::AnyWindow
            },
        }
    }
}

impl Inputs {
    /// Whether `patterns` is what `expect` allows.
    pub fn matches(&self, expect: Expect, patterns: &[FrequentPattern]) -> bool {
        let got = checksum(patterns);
        match expect {
            Expect::Position(position) => self.expected[position] == got,
            Expect::AnyWindow => self.expected_set.contains(&got),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_replay_identically() {
        let workload = find("churn_spill").unwrap();
        let mut a = Schedule::after_fill(workload, 3, 0);
        let mut b = Schedule::after_fill(workload, 3, 0);
        let mut distinct = HashSet::new();
        for _ in 0..500 {
            let (x, y) = (a.next_step(), b.next_step());
            assert_eq!(
                (x.ingest, x.batch, x.batch_id),
                (y.ingest, y.batch, y.batch_id)
            );
            assert_eq!(x.ingest, x.mine);
            distinct.insert(x.ingest);
        }
        assert!(
            distinct.len() > 8,
            "the picker must overflow the resident cap"
        );
    }

    #[test]
    fn fleet_connections_partition_the_tenants() {
        let workload = find("fleet_disk").unwrap();
        let mut c0 = Schedule::after_fill(workload, 1, 0);
        let mut c1 = Schedule::after_fill(workload, 1, 1);
        assert_eq!(c0.owned_tenants(), vec![0, 1, 2, 3]);
        assert_eq!(c1.owned_tenants(), vec![4, 5, 6, 7]);
        for _ in 0..16 {
            let (a, b) = (c0.next_step(), c1.next_step());
            assert!(a.ingest < 4 && a.mine >= 4);
            assert!(b.ingest >= 4 && b.mine < 4);
            assert_eq!(a.expect, Expect::AnyWindow);
        }
    }

    #[test]
    fn periodic_schedules_repeat_every_period() {
        for workload in WORKLOADS.iter().filter(|w| w.gated) {
            let period = workload.routing.period().expect("gated means periodic");
            let mut schedule = Schedule::after_fill(workload, 4, 0);
            let steps: Vec<Step> = (0..3 * period).map(|_| schedule.next_step()).collect();
            for (early, late) in steps.iter().zip(&steps[period..]) {
                assert_eq!(
                    (early.ingest, early.mine, early.batch, early.expect),
                    (late.ingest, late.mine, late.batch, late.expect),
                    "{}",
                    workload.name
                );
                assert!(matches!(early.expect, Expect::Position(_)));
            }
        }
        assert_eq!(find("fleet_disk").unwrap().routing.period(), None);
        assert_eq!(find("churn_spill").unwrap().routing.period(), None);
    }

    #[test]
    fn oracle_covers_every_cycle_position() {
        let workload = Workload {
            batch_size: 40,
            ..*find("churn_spill").unwrap()
        };
        let inputs = Inputs::generate(&workload, 5, 1);
        assert_eq!(inputs.batches.len(), CYCLE);
        assert!(inputs.expected.iter().all(|checksum| *checksum != 0));
        // The seed reorders transactions, never the windows' sets.
        let reordered = Inputs::generate(&workload, 5, 2);
        assert_ne!(
            inputs.batches[0].transactions(),
            reordered.batches[0].transactions()
        );
        assert_eq!(inputs.oracle_digest(), reordered.oracle_digest());
        // Other data is another stream.
        assert_ne!(
            inputs.oracle_digest(),
            Inputs::generate(&workload, 6, 1).oracle_digest()
        );
    }
}
