//! Scenario orchestration: build the world, run the week, collect the data.
//!
//! A scenario is (year, seed, scale): the Table 1 deployment plus the year's
//! actor population, run for the July 1–7 collection window. The result
//! bundles everything every analysis needs — the classified [`Dataset`],
//! the telescope handle, the search-engine indexes, and the reputation
//! oracle.
//!
//! # One engine, run in windows, one dataset build
//!
//! [`Scenario::run`] runs one [`Engine`] over the whole population on the
//! calling thread (DESIGN.md §7). The engine runs in chunked time windows
//! (default [`DEFAULT_WINDOW`]); at every window boundary the telescope
//! folds the window's packet keys ([`Telescope::fold`]), which bounds its
//! key buffer by one window, and the rows the captures recorded in the
//! window are counted for [`StreamStats`]. The captures themselves keep
//! every row until the run is over, as the paper collects a week and
//! classifies it offline (§3.1–§3.2). Then each capture's table is taken
//! ([`Capture::take_rows`]) in registration order, the instruments' shared
//! interner is moved out, and both go to one [`Dataset`] build. The
//! shared interner is pre-sized from [`ScenarioConfig`]'s distinct-value
//! estimates.
//!
//! Window size is a pure wall-clock/memory knob: the build with one window
//! covering the horizon is the reference every other window size must
//! reproduce byte-for-byte, which `tests/determinism.rs` enforces (see
//! docs/ARCHITECTURE.md §"Windowed run and the dataset build").
//! Snapshots are therefore keyed without it. The build *drains* the
//! instruments' capture tables and interner: after a run they are empty,
//! and every row and value lives in the dataset. Independent worlds run in
//! parallel one level up, on the [`crate::fleet`] workers.

use crate::dataset::Dataset;
use cw_honeypot::capture::{Capture, EventTable};
use cw_honeypot::deployment::{Deployment, Instruments};
use cw_honeypot::telescope::Telescope;
use cw_netsim::engine::{Engine, RunStats};
use cw_netsim::fault::{domain_salt, FaultDomain, FaultPlan};
use cw_netsim::time::{SimDuration, SimTime};
use cw_scanners::population::{self, PopulationConfig, PopulationHandles, ScenarioYear};
use std::cell::RefCell;
use std::rc::Rc;

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
    /// Injected measurement faults. [`FaultPlan::none`] (the constructors'
    /// default) is the perfect-sensor world of the golden manifest; a
    /// non-trivial plan *is* part of the world's identity (snapshot keys
    /// and [`crate::bundle::SimBundle::matches`] include it). Fault
    /// schedules are pure functions of `fork_seed(seed, FAULT_DOMAIN)`, so
    /// a faulted world is still byte-identical across thread counts and
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

    /// Returns `self` unchanged: a world has one build. Kept for cwbench
    /// until the next benchmark PR.
    pub fn with_shards(self, _shards: usize) -> Self {
        self
    }

    /// Inject a fault plan (builder style). Panics on rates outside
    /// `[0, 1]` — the configuration boundary is where bad plans must die.
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        fault.validate();
        self.fault = fault;
        self
    }

    /// Always 1: a world has one build. Kept for cwbench until the next
    /// benchmark PR.
    pub fn effective_shards(&self) -> usize {
        1
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

/// The window [`Scenario::run`] runs the engine in: six simulated hours,
/// i.e. 28 windows per one-week horizon. Purely a wall-clock/memory knob
/// (it bounds the telescope's per-window key buffer) — output is
/// byte-identical for every window size.
pub const DEFAULT_WINDOW: SimDuration = SimDuration(21_600);

/// Diagnostics from a windowed run. Observability only — never part of
/// any rendered byte.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// How many time windows the run was chunked into.
    pub windows: usize,
    /// The most capture rows recorded in any one window (summed across
    /// listeners), read from the captures' lengths at each boundary.
    pub peak_window_rows: usize,
}

/// A completed scenario run.
pub struct Scenario {
    /// The configuration used.
    pub config: ScenarioConfig,
    /// The Table 1 layout the world ran on (vantage metadata + topology).
    pub deployment: &'static Deployment,
    /// The world's listeners, their captures drained into the dataset.
    pub(crate) instruments: Instruments,
    /// The classified event store.
    pub dataset: Dataset,
    /// The telescope with its counters.
    pub telescope: Rc<RefCell<Telescope>>,
    /// Population handles: indexes, engine source lists, reputation, ASes.
    pub handles: PopulationHandles,
    /// Engine statistics for the run.
    pub stats: RunStats,
    /// Always empty: a world has one build. Kept for cwbench until the
    /// next benchmark PR.
    pub shard_busy_secs: Vec<f64>,
    /// Windowed-run diagnostics. Every run records them, so this is
    /// always `Some`.
    pub stream: Option<StreamStats>,
}

impl Scenario {
    /// Build the world and run the collection window in
    /// [`DEFAULT_WINDOW`]s (see the module docs). The instruments' capture
    /// tables and interner end *drained*: everything lives in the dataset.
    pub fn run(config: ScenarioConfig) -> Scenario {
        Scenario::run_with_window(config, DEFAULT_WINDOW)
    }

    /// [`Scenario::run`] with an explicit window (a pure wall-clock/memory
    /// knob — the output is byte-identical for every value). One window
    /// covering the whole horizon is the reference build the equivalence
    /// tests compare against.
    ///
    /// Builds one set of [`Instruments`] on the standard layout with the
    /// config's faults applied, registers them and the year's population
    /// with one engine, then runs the engine window by window, folding the
    /// telescope and counting the captures' rows at every boundary. After
    /// the last window it moves the capture tables and the shared interner
    /// into one [`Dataset`] build.
    pub fn run_with_window(config: ScenarioConfig, window: SimDuration) -> Scenario {
        let deployment = Deployment::standard();
        let instruments = deployment.instruments();
        // Fault schedules are pure functions of (seed, vantage index).
        instruments.apply_faults(&config.fault, config.seed, config.horizon);
        let mut engine = Engine::new();
        engine.set_flow_loss(
            config.fault.flow_loss,
            domain_salt(config.seed, FaultDomain::FlowLoss),
        );
        instruments.register(&mut engine);
        let population = PopulationConfig {
            year: config.year,
            seed: config.seed,
            scale: config.scale,
        };
        let handles = population::build(&population, deployment).register(&mut engine);
        // Per honeypot listener, in registration order.
        let captures: Vec<Rc<RefCell<Capture>>> = instruments
            .honeypots
            .iter()
            .map(|h| h.borrow().capture())
            .collect();
        // Pre-size the shared interner from the configured scale.
        instruments.interner.borrow_mut().reserve(
            config.estimated_distinct_payloads(),
            config.estimated_distinct_creds(),
        );
        let mut stats = RunStats::default();
        let mut stream = StreamStats::default();
        let mut rows_before = 0;
        for end in window_ends(config.horizon, window) {
            // Engine counters are cumulative, so the last window's return
            // value is the whole run's stats.
            stats = engine.run(end);
            instruments.telescope.borrow_mut().fold();
            let rows: usize = captures.iter().map(|c| c.borrow().len()).sum();
            stream.windows += 1;
            stream.peak_window_rows = stream.peak_window_rows.max(rows - rows_before);
            rows_before = rows;
        }
        let tables: Vec<EventTable> = captures
            .iter()
            .map(|c| c.borrow_mut().take_rows())
            .collect();
        let interner = std::mem::take(&mut *instruments.interner.borrow_mut());
        let dataset = Dataset::assemble(tables, interner);
        let telescope = instruments.telescope.clone();
        Scenario {
            config,
            deployment,
            instruments,
            dataset,
            telescope,
            handles,
            stats,
            shard_busy_secs: Vec::new(),
            stream: Some(stream),
        }
    }
}

/// The window boundaries for a horizon: ascending, strictly positive
/// steps, with the final boundary landing exactly on the horizon. A pure
/// function of `(horizon, window)`.
fn window_ends(horizon: SimDuration, window: SimDuration) -> impl Iterator<Item = SimTime> {
    let w = window.secs().max(1);
    let h = horizon.secs();
    let n = h.div_ceil(w).max(1);
    (1..=n).map(move |i| SimTime((i * w).min(h)))
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
            .with_scale(0.02);
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
        // The build drains the captures: every row lives in the dataset.
        assert!(s.instruments.honeypots.iter().all(|h| {
            let cap = h.borrow().capture();
            let empty = cap.borrow().is_empty();
            empty
        }));
    }
}
