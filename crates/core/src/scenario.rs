//! Scenario orchestration: build the world, run the week, collect the data.
//!
//! A scenario is (year, seed, scale): the Table 1 deployment plus the year's
//! actor population, run for the July 1–7 collection window. The result
//! bundles everything every analysis needs — the classified [`Dataset`],
//! the telescope handle, the search-engine indexes, and the reputation
//! oracle.
//!
//! # Two builds, one output
//!
//! [`Scenario::run`] builds the world one of two ways, chosen by
//! [`ScenarioConfig::effective_shards`]; both produce the same bytes:
//!
//! - **K = 1:** one [`Engine`] runs the whole population on the calling
//!   thread.
//! - **K > 1:** the actor population is partitioned into K shards —
//!   ownership is the pure function
//!   [`population::shard_of`]`(seed, actor_id, K)` — and each shard runs
//!   its own [`Engine`] over its own copy of the deterministic world on a
//!   worker thread. The shard outputs are merged back into exactly the
//!   record the one-engine build produces:
//!   - every flow carries `(time, agent, seq)` stamps whose lexicographic
//!     order *is* the one-engine delivery order (the wake queue pops
//!     `(time, agent-id)` ascending and `seq` orders the sends of one
//!     wake), so a K-way cursor merge over the per-shard capture rows
//!     restores the global event order;
//!   - interned payload/credential ids are re-interned into the dataset's
//!     interner while walking that order, reproducing the one-engine
//!     first-occurrence id assignment byte-for-byte;
//!   - telescope counters and [`RunStats`] fold with their
//!     order-independent `absorb` merges, in shard order.
//!
//! Both builds stream: the engines run in chunked time windows (default
//! [`DEFAULT_WINDOW`]); at every window boundary each listener's capture
//! is drained ([`Capture::take_rows`]) and absorbed into an incremental
//! [`DatasetBuilder`], and the telescope folds the window's packet keys
//! ([`Telescope::fold`]), so capture-side buffering never exceeds one
//! window of events per engine — the memory headroom that makes
//! `scale: 10`/`scale: 100` worlds practical. Arena and interner capacity is pre-sized
//! from [`ScenarioConfig`]'s event/distinct-value estimates.
//!
//! Shard count and window size are pure wall-clock/memory knobs: the K = 1
//! build with one window covering the horizon is the reference every other
//! (shards, window) pair must reproduce byte-for-byte, which
//! `tests/determinism.rs` enforces (see docs/ARCHITECTURE.md §"Sharded
//! simulation" and §"Streaming dataset build"). Snapshots are therefore
//! keyed without either. Streaming *drains* the deployment's capture
//! tables: after a run they are empty, and every row lives in the dataset.

use crate::dataset::{Dataset, DatasetBuilder};
use cw_honeypot::capture::{Capture, EventTable, Observed};
use cw_honeypot::deployment::Deployment;
use cw_honeypot::telescope::Telescope;
use cw_netsim::asn::AsRegistry;
use cw_netsim::engine::{Engine, RunStats};
use cw_netsim::fault::{domain_salt, FaultDomain, FaultPlan};
use cw_netsim::intern::{CredId, Interner, PayloadId, Remap};
use cw_netsim::time::{SimDuration, SimTime};
use cw_scanners::population::{
    self, Population, PopulationConfig, PopulationHandles, ScenarioYear,
};
use cw_scanners::search_engine::SearchIndex;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::sync::mpsc::{sync_channel, SyncSender};

/// Scenario parameters.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioConfig {
    /// Measurement year.
    pub year: ScenarioYear,
    /// Master seed.
    pub seed: u64,
    /// Population scale (1.0 = full experiment; tests use ~0.05).
    pub scale: f64,
    /// Collection window length.
    pub horizon: SimDuration,
    /// Number of simulation shards; 0 means "auto" (the machine's
    /// available parallelism). Purely a wall-clock knob: output is
    /// byte-identical for every value, so it is not part of a world's
    /// identity (snapshot keys and [`crate::bundle::SimBundle::matches`]
    /// ignore it).
    pub shards: usize,
    /// Injected measurement faults. [`FaultPlan::none`] (the constructors'
    /// default) is the perfect-sensor world of the golden manifest; a
    /// non-trivial plan *is* part of the world's identity (snapshot keys
    /// and [`crate::bundle::SimBundle::matches`] include it). Fault
    /// schedules are pure functions of `fork_seed(seed, FAULT_DOMAIN)`, so
    /// a faulted world is still byte-identical across threads × shards ×
    /// cache states.
    pub fault: FaultPlan,
}

impl ScenarioConfig {
    /// The paper's configuration for a year, at full scale.
    pub fn paper(year: ScenarioYear) -> Self {
        ScenarioConfig {
            year,
            seed: DEFAULT_SEED,
            scale: 1.0,
            horizon: SimDuration::WEEK,
            shards: 0,
            fault: FaultPlan::none(),
        }
    }

    /// A reduced configuration for tests and quick examples.
    pub fn fast(year: ScenarioYear) -> Self {
        ScenarioConfig {
            year,
            seed: DEFAULT_SEED,
            scale: 0.06,
            horizon: SimDuration::WEEK,
            shards: 0,
            fault: FaultPlan::none(),
        }
    }

    /// Override the seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the scale (builder style).
    pub fn with_scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    /// Override the shard count (builder style). 0 restores the default:
    /// one shard per unit of available parallelism.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Inject a fault plan (builder style). Panics on rates outside
    /// `[0, 1]` — the configuration boundary is where bad plans must die.
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        fault.validate();
        self.fault = fault;
        self
    }

    /// The effective shard count: the explicit value, or available
    /// parallelism when set to 0 ("auto").
    pub fn effective_shards(&self) -> usize {
        self.effective_shards_with(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// [`ScenarioConfig::effective_shards`] against an explicit hardware
    /// parallelism, so callers (and tests) can pin the auto-selection rule:
    /// "auto" on a single-core box resolves to 1 shard — the K = 1 build —
    /// never to a K>1 split that only adds merge overhead.
    pub fn effective_shards_with(&self, hardware_threads: usize) -> usize {
        match self.shards {
            0 => hardware_threads.max(1),
            n => n,
        }
    }

    /// Expected delivered-event count for this configuration, for
    /// pre-sizing allocations. Calibrated against the scale-1 one-week
    /// world (~1.53M capture rows) and scaled linearly in both `scale` and
    /// the horizon. An allocation hint only — nothing observable depends on
    /// it.
    pub fn estimated_events(&self) -> usize {
        let weeks = self.horizon.secs() as f64 / SimDuration::WEEK.secs() as f64;
        (self.scale * weeks * 1_600_000.0).ceil() as usize
    }

    /// Expected distinct payload count (~9.2k at scale 1), for pre-sizing
    /// the interner arenas. Sized linearly in `scale` and capped by the
    /// event estimate so tiny test worlds do not over-reserve.
    pub fn estimated_distinct_payloads(&self) -> usize {
        let linear = (2_000.0 + self.scale * 10_000.0).ceil() as usize;
        linear.min(self.estimated_events().max(1_024))
    }

    /// Expected distinct credential-string count. The credential dictionary
    /// is fixed per year, so this is scale-independent.
    pub fn estimated_distinct_creds(&self) -> usize {
        4_096
    }
}

/// The default reproduction seed (fixed so published tables regenerate
/// bit-identically).
pub const DEFAULT_SEED: u64 = 0x1_C10D_3A7C;

/// The streaming window [`Scenario::run`] uses: six simulated hours, i.e.
/// 28 windows per one-week horizon. Purely a wall-clock/memory knob —
/// output is byte-identical for every window size.
pub const DEFAULT_WINDOW: SimDuration = SimDuration(21_600);

/// Diagnostics from a streaming build. Observability only — never part of
/// any rendered byte.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// How many time windows the run was chunked into.
    pub windows: usize,
    /// The largest number of capture rows buffered in any one window
    /// (summed across listeners, and across shards on the K > 1 build) —
    /// the quantity the streaming build bounds.
    pub peak_window_rows: usize,
}

/// A completed scenario run.
pub struct Scenario {
    /// The configuration used.
    pub config: ScenarioConfig,
    /// The Table 1 deployment (vantage metadata + topology).
    pub deployment: Deployment,
    /// The classified event store.
    pub dataset: Dataset,
    /// The telescope with its counters.
    pub telescope: Rc<RefCell<Telescope>>,
    /// Population handles: indexes, engine source lists, reputation, ASes.
    pub handles: PopulationHandles,
    /// Engine statistics for the run.
    pub stats: RunStats,
    /// Wall-clock seconds each shard's engine spent (build + run + fold),
    /// indexed by shard. Empty on the K = 1 build. Diagnostic only — never
    /// part of any rendered byte.
    pub shard_busy_secs: Vec<f64>,
    /// Streaming-build diagnostics. Both builds record them, so this is
    /// always `Some`.
    pub stream: Option<StreamStats>,
}

impl Scenario {
    /// Build the world and run the collection window in
    /// [`DEFAULT_WINDOW`]s (see the module docs). The deployment's capture
    /// tables end *drained*: every row lives in the dataset.
    pub fn run(config: ScenarioConfig) -> Scenario {
        Scenario::run_with_window(config, DEFAULT_WINDOW)
    }

    /// [`Scenario::run`] with an explicit streaming window (a pure
    /// wall-clock/memory knob — the output is byte-identical for every
    /// value). One window covering the whole horizon on one shard is the
    /// reference build the equivalence tests compare against.
    pub fn run_with_window(config: ScenarioConfig, window: SimDuration) -> Scenario {
        let shards = config.effective_shards();
        if shards <= 1 {
            Scenario::run_single_streaming(config, window)
        } else {
            Scenario::run_sharded_streaming(config, shards, window)
        }
    }

    /// The K = 1 build: one engine on the calling thread, run window by
    /// window, captures drained and absorbed at every boundary.
    fn run_single_streaming(config: ScenarioConfig, window: SimDuration) -> Scenario {
        let World {
            deployment,
            mut engine,
            captures,
            interner,
            pop,
        } = World::build(&config);
        let handles = pop.register(&mut engine);
        // Pre-size the shared interner and the dataset-side arenas from the
        // configured scale.
        if let Some(rc) = &interner {
            rc.borrow_mut().reserve(
                config.estimated_distinct_payloads(),
                config.estimated_distinct_creds(),
            );
        }
        let mut builder = DatasetBuilder::new(&deployment, captures.len()).with_interner_capacity(
            config.estimated_distinct_payloads(),
            config.estimated_distinct_creds(),
        );
        let mut remap = Remap::identity();
        let mut stats = RunStats::default();
        let mut stream = StreamStats::default();
        for end in window_ends(config.horizon, window) {
            // Engine counters are cumulative, so the last window's return
            // value is the whole run's stats.
            stats = engine.run(end);
            // Bring the remap up to date with whatever the engine interned
            // this window, *before* translating the window's rows.
            if let Some(rc) = &interner {
                builder.extend_remap(&rc.borrow(), &mut remap);
            }
            let mut window_rows = 0;
            for (slot, cap) in captures.iter().enumerate() {
                let (table, _order) = cap.borrow_mut().take_rows();
                window_rows += table.len();
                builder.absorb_table(slot, &table, &remap);
            }
            deployment.telescope.borrow_mut().fold();
            stream.windows += 1;
            stream.peak_window_rows = stream.peak_window_rows.max(window_rows);
        }
        let dataset = builder.finish();
        let telescope = deployment.telescope.clone();
        Scenario {
            config,
            deployment,
            dataset,
            telescope,
            handles,
            stats,
            shard_busy_secs: Vec::new(),
            stream: Some(stream),
        }
    }

    /// The K > 1 build: K worker threads each run their shard window by
    /// window, shipping drained rows plus interner deltas through a
    /// bounded channel; the merger K-way merges each window into the
    /// dataset builder in global `(time, agent, seq)` order
    /// ([`merge_window`]).
    ///
    /// Windows partition event time identically on every shard (the
    /// boundaries are a pure function of horizon and window), so merging
    /// window w completely before window w+1 yields exactly the global
    /// merge order. The `sync_channel(1)` bound is the memory bound: at
    /// most one undelivered window per shard is ever in flight.
    fn run_sharded_streaming(
        config: ScenarioConfig,
        shards: usize,
        window: SimDuration,
    ) -> Scenario {
        let ends: Vec<SimTime> = window_ends(config.horizon, window).collect();

        let deployment = Deployment::standard();
        let slots = deployment.honeypots.len();
        let mut builder = DatasetBuilder::new(&deployment, slots).with_interner_capacity(
            config.estimated_distinct_payloads(),
            config.estimated_distinct_creds(),
        );
        let mut stream = StreamStats {
            windows: ends.len(),
            peak_window_rows: 0,
        };
        let mut stats = RunStats::default();
        let mut shard_busy = vec![0.0; shards];
        let mut coupled: Option<ShardHandles> = None;

        std::thread::scope(|scope| {
            let mut rxs = Vec::with_capacity(shards);
            for shard in 0..shards {
                let (tx, rx) = sync_channel::<ShardMsg>(1);
                let ends = &ends;
                scope.spawn(move || stream_one_shard(config, shard, shards, ends, tx));
                rxs.push(rx);
            }
            let mut states: Vec<ShardMergeState> =
                (0..shards).map(|_| ShardMergeState::default()).collect();
            for _ in 0..ends.len() {
                // Lockstep: every shard produces exactly one message per
                // window (the boundaries are shared), so one recv per
                // shard collects the whole window.
                let mut chunks: Vec<WindowChunk> = Vec::with_capacity(shards);
                for (s, rx) in rxs.iter().enumerate() {
                    match rx.recv().expect("shard worker died") {
                        ShardMsg::Window {
                            tables,
                            new_payloads,
                            new_creds,
                        } => {
                            let st = &mut states[s];
                            st.payload_memo
                                .resize(st.payload_memo.len() + new_payloads.len(), None);
                            st.cred_memo
                                .resize(st.cred_memo.len() + new_creds.len(), None);
                            st.payload_values.extend(new_payloads);
                            st.cred_values.extend(new_creds);
                            chunks.push(tables);
                        }
                        ShardMsg::Final { .. } => unreachable!("final before last window"),
                    }
                }
                let rows = merge_window(&mut builder, &mut states, &chunks);
                stream.peak_window_rows = stream.peak_window_rows.max(rows);
            }
            for (s, rx) in rxs.iter().enumerate() {
                match rx.recv().expect("shard worker died") {
                    ShardMsg::Final {
                        telescope,
                        stats: shard_stats,
                        handles,
                        busy_secs,
                    } => {
                        deployment.telescope.borrow_mut().absorb(*telescope);
                        stats.absorb(shard_stats);
                        shard_busy[s] = busy_secs;
                        if let Some(h) = handles {
                            coupled = Some(*h);
                        }
                    }
                    ShardMsg::Window { .. } => unreachable!("window after horizon"),
                }
            }
        });

        let dataset = builder.finish();
        let coupled = coupled.expect("exactly one shard owns the coupled actor group");
        let handles = PopulationHandles {
            censys: Rc::new(RefCell::new(coupled.censys)),
            shodan: Rc::new(RefCell::new(coupled.shodan)),
            censys_srcs: coupled.censys_srcs,
            shodan_srcs: coupled.shodan_srcs,
            reputation: coupled.reputation,
            registry: coupled.registry,
        };
        let telescope = deployment.telescope.clone();
        Scenario {
            config,
            deployment,
            dataset,
            telescope,
            handles,
            stats,
            shard_busy_secs: shard_busy,
            stream: Some(stream),
        }
    }
}

/// The streaming window boundaries for a horizon: ascending, strictly
/// positive steps, with the final boundary landing exactly on the horizon.
/// A pure function of `(horizon, window)` — shard workers and the merger
/// derive identical schedules from it independently.
fn window_ends(horizon: SimDuration, window: SimDuration) -> impl Iterator<Item = SimTime> {
    let w = window.secs().max(1);
    let h = horizon.secs();
    let n = h.div_ceil(w).max(1);
    (1..=n).map(move |i| SimTime((i * w).min(h)))
}

/// The `Send` parts of the coupled shard's population handles (the search
/// indexes plus build-time oracles), cloned out of their `Rc` wrappers so
/// they can cross back to the merging thread.
struct ShardHandles {
    censys: SearchIndex,
    shodan: SearchIndex,
    censys_srcs: Vec<Ipv4Addr>,
    shodan_srcs: Vec<Ipv4Addr>,
    reputation: cw_detection::ReputationDb,
    registry: AsRegistry,
}

/// One engine's freshly built world — the prelude both builds share: the
/// standard deployment with the config's faults applied, an engine with
/// the flow-loss schedule and every listener registered, the listeners'
/// captures with their shared interner, and the year's population, not yet
/// registered, so each build decides which agents this engine runs.
struct World {
    deployment: Deployment,
    engine: Engine,
    /// Per honeypot listener, in deployment registration order.
    captures: Vec<Rc<RefCell<Capture>>>,
    /// The interner every listener of the deployment shares.
    interner: Option<Rc<RefCell<Interner>>>,
    pop: Population,
}

impl World {
    fn build(config: &ScenarioConfig) -> World {
        let deployment = Deployment::standard();
        // Every engine derives the same fault schedules from the same
        // config — pure functions of (seed, vantage index), never of the
        // shard count.
        deployment.apply_faults(&config.fault, config.seed, config.horizon);
        let mut engine = Engine::new();
        engine.set_flow_loss(
            config.fault.flow_loss,
            domain_salt(config.seed, FaultDomain::FlowLoss),
        );
        deployment.register(&mut engine);
        let pop = population::build(
            &PopulationConfig {
                year: config.year,
                seed: config.seed,
                scale: config.scale,
            },
            &deployment,
        );
        let captures: Vec<Rc<RefCell<Capture>>> = deployment
            .honeypots
            .iter()
            .map(|h| h.borrow().capture())
            .collect();
        let interner = captures.first().map(|c| c.borrow().interner());
        World {
            deployment,
            engine,
            captures,
            interner,
            pop,
        }
    }
}

/// One window's drained rows for every listener of one shard: per
/// listener (deployment registration order), the drained [`EventTable`]
/// plus its parallel `(agent, seq)` order stamps.
type WindowChunk = Vec<(EventTable, Vec<(u32, u64)>)>;

/// What a streaming shard worker ships to the merger: one `Window` per
/// window boundary (drained rows plus the interner values minted since the
/// previous boundary, in insertion order), then exactly one `Final`.
enum ShardMsg {
    /// One window's drained captures.
    Window {
        /// Per listener (deployment registration order): drained rows plus
        /// their parallel `(agent, seq)` order stamps.
        tables: WindowChunk,
        /// Payload values interned by this shard since the last window, in
        /// insertion order — their shard-local ids are the previous count
        /// onwards, so the merger can extend its shadow arena positionally.
        new_payloads: Vec<Vec<u8>>,
        /// Credential values interned since the last window (same scheme).
        new_creds: Vec<String>,
    },
    /// End of stream: the shard's whole-run fold.
    Final {
        /// The shard's telescope counters (boxed: the counters dwarf the
        /// per-window variant).
        telescope: Box<Telescope>,
        /// The shard engine's cumulative counters.
        stats: RunStats,
        /// `Some` only on the shard owning the coupled actor group.
        handles: Option<Box<ShardHandles>>,
        /// Wall-clock seconds the shard spent (build + run + fold).
        busy_secs: f64,
    },
}

/// The merger's view of one shard's id space: a positional shadow of the
/// shard-local arenas (grown from the per-window deltas) plus the dense
/// shard-id → merged-id memo (ids are arena indexes).
#[derive(Default)]
struct ShardMergeState {
    payload_values: Vec<Vec<u8>>,
    cred_values: Vec<String>,
    payload_memo: Vec<Option<PayloadId>>,
    cred_memo: Vec<Option<CredId>>,
}

/// Worker body for one shard: build the world, register only shard
/// `shard`'s agents (under their global ids), then run window by window,
/// draining captures and shipping each window through the bounded channel.
fn stream_one_shard(
    config: ScenarioConfig,
    shard: usize,
    shards: usize,
    ends: &[SimTime],
    tx: SyncSender<ShardMsg>,
) {
    let started = std::time::Instant::now();
    let World {
        deployment,
        mut engine,
        captures,
        interner,
        pop,
    } = World::build(&config);
    let anchor = pop.coupled.first().copied().unwrap_or(0);
    let owns_coupled = population::shard_of(config.seed, anchor as u32, shards) == shard;
    let handles = pop.register_shard(&mut engine, config.seed, shard, shards);

    let (mut seen_payloads, mut seen_creds) = (0usize, 0usize);
    let mut stats = RunStats::default();
    for &end in ends {
        stats = engine.run(end);
        let (new_payloads, new_creds) = match &interner {
            Some(rc) => {
                let i = rc.borrow();
                let np = i.payloads_from(seen_payloads).to_vec();
                let nc = i.creds_from(seen_creds).to_vec();
                seen_payloads = i.payload_count();
                seen_creds = i.cred_count();
                (np, nc)
            }
            None => (Vec::new(), Vec::new()),
        };
        let tables: Vec<(EventTable, Vec<(u32, u64)>)> = captures
            .iter()
            .map(|c| c.borrow_mut().take_rows())
            .collect();
        deployment.telescope.borrow_mut().fold();
        // The bounded channel is the memory bound: at most one undelivered
        // window per shard. A hung-up receiver means the merger panicked —
        // exit quietly and let the scope propagate that panic.
        if tx
            .send(ShardMsg::Window {
                tables,
                new_payloads,
                new_creds,
            })
            .is_err()
        {
            return;
        }
    }
    let shard_handles = owns_coupled.then(|| {
        Box::new(ShardHandles {
            censys: handles.censys.borrow().clone(),
            shodan: handles.shodan.borrow().clone(),
            censys_srcs: handles.censys_srcs,
            shodan_srcs: handles.shodan_srcs,
            reputation: handles.reputation,
            registry: handles.registry,
        })
    });
    let _ = tx.send(ShardMsg::Final {
        telescope: Box::new(deployment.telescope.borrow().clone()),
        stats,
        handles: shard_handles,
        busy_secs: started.elapsed().as_secs_f64(),
    });
}

/// K-way merge one window's chunks into the builder in global
/// `(time, agent, seq)` order, lazily re-interning via the per-shard
/// memos. Returns the number of rows merged (the window's capture-side
/// buffering footprint).
///
/// Correctness of the byte-identity claim rests on three facts:
///
/// - `(time, agent, seq)` is the one-engine delivery order: the wake queue
///   pops `(time, agent-id)` ascending, agents are disjoint across shards
///   (so cross-shard keys never tie), and within one shard `seq` is
///   monotone in delivery order.
/// - Every intern the record path performs belongs to exactly one recorded
///   event, in within-event order (payload; or username then password) —
///   so lazily re-interning while walking the merged order reproduces the
///   one-engine interner's first-occurrence id assignment exactly.
/// - Window boundaries partition event time identically on every shard,
///   so per-window merges concatenate to exactly the whole-run merge
///   order.
fn merge_window(
    builder: &mut DatasetBuilder,
    states: &mut [ShardMergeState],
    chunks: &[WindowChunk],
) -> usize {
    type Key = Reverse<(SimTime, u32, u64, usize, usize)>;
    let key = |s: usize, l: usize, i: usize| -> Key {
        let (table, order) = &chunks[s][l];
        let (agent, seq) = order[i];
        Reverse((table.times()[i], agent, seq, s, l))
    };
    let mut cursors: Vec<Vec<usize>> = chunks.iter().map(|c| vec![0usize; c.len()]).collect();
    let mut heap: BinaryHeap<Key> = BinaryHeap::new();
    for (s, tables) in chunks.iter().enumerate() {
        for (l, (table, _)) in tables.iter().enumerate() {
            if !table.is_empty() {
                heap.push(key(s, l, 0));
            }
        }
    }
    let mut rows = 0usize;
    while let Some(Reverse((_, _, _, s, l))) = heap.pop() {
        let i = cursors[s][l];
        cursors[s][l] += 1;
        let (table, _) = &chunks[s][l];
        let mut event = table.get(i);
        let st = &mut states[s];
        event.observed = match event.observed {
            Observed::Payload(p) => {
                let id = match st.payload_memo[p.index()] {
                    Some(id) => id,
                    None => {
                        let id = builder.intern_payload(&st.payload_values[p.index()]);
                        st.payload_memo[p.index()] = Some(id);
                        id
                    }
                };
                Observed::Payload(id)
            }
            Observed::Credentials {
                service,
                username,
                password,
            } => {
                // Within-event intern order is username then password.
                let username = match st.cred_memo[username.index()] {
                    Some(id) => id,
                    None => {
                        let id = builder.intern_cred(&st.cred_values[username.index()]);
                        st.cred_memo[username.index()] = Some(id);
                        id
                    }
                };
                let password = match st.cred_memo[password.index()] {
                    Some(id) => id,
                    None => {
                        let id = builder.intern_cred(&st.cred_values[password.index()]);
                        st.cred_memo[password.index()] = Some(id);
                        id
                    }
                };
                Observed::Credentials {
                    service,
                    username,
                    password,
                }
            }
            other => other,
        };
        builder.push_event(l, event);
        rows += 1;
        if i + 1 < table.len() {
            heap.push(key(s, l, i + 1));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_scenario_produces_traffic_everywhere() {
        let s = Scenario::run(ScenarioConfig::fast(ScenarioYear::Y2021).with_seed(11));
        assert!(s.stats.flows_delivered > 5_000, "{:?}", s.stats);
        assert!(!s.dataset.is_empty());
        let tel = s.telescope.borrow();
        assert!(tel.total_packets() > 1_000);
        assert!(tel.unique_source_count() > 100);
    }

    #[test]
    fn scenario_is_deterministic() {
        let cfg = ScenarioConfig::fast(ScenarioYear::Y2021).with_seed(5);
        let a = Scenario::run(cfg);
        let b = Scenario::run(cfg);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.dataset.len(), b.dataset.len());
        assert_eq!(
            a.telescope.borrow().total_packets(),
            b.telescope.borrow().total_packets()
        );
    }

    #[test]
    fn window_ends_partition_the_horizon() {
        let ends: Vec<u64> = window_ends(SimDuration::WEEK, DEFAULT_WINDOW)
            .map(|t| t.secs())
            .collect();
        assert_eq!(ends.len(), 28);
        assert_eq!(*ends.last().unwrap(), SimDuration::WEEK.secs());
        assert!(ends.windows(2).all(|w| w[0] < w[1]));
        // Uneven division: the last window is short, never skipped.
        let ends: Vec<u64> = window_ends(SimDuration::from_secs(10), SimDuration::from_secs(4))
            .map(|t| t.secs())
            .collect();
        assert_eq!(ends, vec![4, 8, 10]);
        // Window larger than the horizon: one window, ending at the horizon.
        let ends: Vec<u64> = window_ends(SimDuration::from_secs(5), SimDuration::WEEK)
            .map(|t| t.secs())
            .collect();
        assert_eq!(ends, vec![5]);
        // Degenerate zero-width window is clamped, not an infinite loop.
        assert_eq!(
            window_ends(SimDuration::from_secs(2), SimDuration::from_secs(0)).count(),
            2
        );
    }

    /// "Auto" shard selection on a single-core box must resolve to the
    /// K = 1 build, never a forced K>1 split.
    #[test]
    fn auto_shards_resolve_to_one_on_single_core() {
        let cfg = ScenarioConfig::fast(ScenarioYear::Y2021).with_shards(0);
        assert_eq!(cfg.effective_shards_with(1), 1);
        assert_eq!(cfg.effective_shards_with(0), 1);
        assert_eq!(cfg.effective_shards_with(8), 8);
        // An explicit shard count is always honored.
        assert_eq!(cfg.with_shards(3).effective_shards_with(1), 3);
    }

    #[test]
    fn size_estimates_scale_sanely() {
        let full = ScenarioConfig::paper(ScenarioYear::Y2021);
        assert!((1_500_000..1_700_000).contains(&full.estimated_events()));
        let ten = full.with_scale(10.0);
        assert_eq!(ten.estimated_events(), full.estimated_events() * 10);
        assert!(ten.estimated_distinct_payloads() > full.estimated_distinct_payloads());
        // Tiny worlds cap the payload estimate instead of over-reserving.
        let tiny = full.with_scale(0.0001);
        assert!(tiny.estimated_distinct_payloads() <= 1_024);
    }

    /// Day windows must agree with the one-window reference build on
    /// everything cheap to compare here; the byte-level equivalence matrix
    /// lives in tests/determinism.rs.
    #[test]
    fn streaming_matches_one_window_summary() {
        let cfg = ScenarioConfig::fast(ScenarioYear::Y2021)
            .with_seed(11)
            .with_scale(0.02)
            .with_shards(1);
        let one = Scenario::run_with_window(cfg, cfg.horizon);
        let s = Scenario::run_with_window(cfg, SimDuration::DAY);
        assert_eq!(one.stats, s.stats);
        assert_eq!(one.dataset.len(), s.dataset.len());
        assert_eq!(
            one.telescope.borrow().total_packets(),
            s.telescope.borrow().total_packets()
        );
        let stream = one.stream.expect("streaming run records stream stats");
        assert_eq!(stream.windows, 1);
        let stream = s.stream.expect("streaming run records stream stats");
        assert_eq!(stream.windows, 7);
        assert!(stream.peak_window_rows < s.dataset.len());
        // Streaming drains the captures: every row lives in the dataset.
        assert!(s.deployment.honeypots.iter().all(|h| {
            let cap = h.borrow().capture();
            let empty = cap.borrow().is_empty();
            empty
        }));
    }
}
