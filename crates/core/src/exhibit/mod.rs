//! The unified exhibit registry: every table, figure, and ablation as a
//! named value.
//!
//! Historically each exhibit was its own binary that simulated its own
//! world, so regenerating all 25 meant ~27 redundant simulations. Here an
//! exhibit is a *pure render*: it declares which simulated worlds it needs
//! ([`Exhibit::needs`]) and turns the matching [`SimBundle`]s into its
//! exact stdout text ([`Exhibit::run`]). The `cw` driver resolves the
//! union of needs across the requested exhibits, obtains each distinct
//! world once (through the [`crate::snapshot`] cache), and fans the
//! bundles out to every render — simulate once, analyze many.
//!
//! Renders are byte-identical to the retired binaries: the golden-exhibit
//! gate (`tests/golden.rs`) pins them against `tests/golden/MANIFEST.sha256`.

pub mod ablations;
pub mod appendix;
pub mod main_year;
pub mod special;

use crate::bundle::SimBundle;
use crate::dataset::Dataset;
use crate::fleet;
use crate::leak::{LeakConfig, LeakOutcome};
use crate::neighborhood::NeighborhoodRow;
use crate::overlap::{MaliciousOverlapRow, OverlapRow};
use crate::ports::{CompositionStats, ProtocolBreakdownRow, UnexpectedShare};
use crate::query::{Plan, PlanStore, ScanExec};
use crate::scenario::{ScenarioConfig, DEFAULT_SEED};
use cw_honeypot::deployment::Deployment;
use cw_scanners::population::ScenarioYear;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// One simulated world an exhibit needs, by scenario year.
///
/// The two variants differ only in how they react to a `--year` override:
/// a default year follows the override (re-running the 2021 analysis on
/// another year's data, as Appendix C does), while a pinned year ignores
/// it (cross-year exhibits like Table 14 are meaningless on one year).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Need {
    /// The exhibit's default year; a `--year` override replaces it.
    Year(ScenarioYear),
    /// A pinned year; `--year` does not apply.
    Exact(ScenarioYear),
}

impl Need {
    /// The year this need resolves to under `opts`.
    pub fn resolve(self, opts: &ExhibitOptions) -> ScenarioYear {
        match self {
            Need::Year(default) => opts.year.unwrap_or(default),
            Need::Exact(year) => year,
        }
    }
}

/// A port whose Table 11/17 protocol breakdown [`ExhibitCx::breakdown`]
/// memoizes: the paper reports only HTTP's two ports, so no other port can
/// be asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakdownPort {
    /// TCP/80.
    P80,
    /// TCP/8080.
    P8080,
}

impl BreakdownPort {
    /// Both ports, in the paper's row order.
    pub const BOTH: [BreakdownPort; 2] = [BreakdownPort::P80, BreakdownPort::P8080];

    /// The port number.
    pub fn number(self) -> u16 {
        match self {
            BreakdownPort::P80 => 80,
            BreakdownPort::P8080 => 8080,
        }
    }
}

impl std::fmt::Display for BreakdownPort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.number().fmt(f)
    }
}

/// The scenario-selection options shared by every exhibit in one
/// invocation (the `--scale`, `--seed`, `--year` flags of the `cw` CLI).
#[derive(Debug, Clone, Copy)]
pub struct ExhibitOptions {
    /// Population scale.
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Year override for [`Need::Year`] needs.
    pub year: Option<ScenarioYear>,
    /// Read by nothing: a world has one build. Kept for cwbench until the
    /// next benchmark PR.
    pub shards: usize,
    /// Deterministic measurement-fault plan applied to every simulated
    /// world this invocation obtains (including the leak worlds). This *is*
    /// part of world identity: any non-none plan changes the rendered bytes
    /// and the snapshot cache addresses.
    pub fault: cw_netsim::fault::FaultPlan,
}

impl Default for ExhibitOptions {
    fn default() -> Self {
        ExhibitOptions {
            scale: 1.0,
            seed: DEFAULT_SEED,
            year: None,
            shards: 0,
            fault: cw_netsim::fault::FaultPlan::none(),
        }
    }
}

impl ExhibitOptions {
    /// The scenario configuration these options select for `year`.
    pub fn config(&self, year: ScenarioYear) -> ScenarioConfig {
        ScenarioConfig::paper(year)
            .with_seed(self.seed)
            .with_scale(self.scale)
            .with_fault(self.fault)
    }
}

/// Lazily memoized analysis products of one simulated world.
///
/// Several exhibits consume the same derived tables (the `all` digest
/// alone re-derives Tables 2, 4, 8, 9, and 11; `recommendations` and
/// `temporal_stability` lean on the same overlap rows). Memoizing them per
/// bundle makes each product a compute-once value for the whole
/// invocation, exactly like the bundles themselves — the product is a pure
/// function of the bundle, so sharing cannot change any rendered byte.
#[derive(Default)]
struct YearMemo {
    table2: OnceLock<Vec<NeighborhoodRow>>,
    table4: OnceLock<Vec<crate::geography::MostDifferentRegion>>,
    overlap: OnceLock<(Vec<OverlapRow>, Vec<MaliciousOverlapRow>)>,
    breakdown80: OnceLock<(Vec<ProtocolBreakdownRow>, Vec<UnexpectedShare>)>,
    breakdown8080: OnceLock<(Vec<ProtocolBreakdownRow>, Vec<UnexpectedShare>)>,
    composition: OnceLock<CompositionStats>,
}

/// The render context handed to [`Exhibit::run`]: the shared options plus
/// the simulated worlds, keyed by scenario year (seed and scale are fixed
/// per invocation, so the year identifies a bundle).
pub struct ExhibitCx<'a> {
    /// The invocation's scenario-selection options.
    pub opts: ExhibitOptions,
    /// Worker threads [`ExhibitCx::prefetch`] spreads passes over.
    threads: usize,
    bundles: &'a BTreeMap<u16, SimBundle>,
    memo: BTreeMap<u16, YearMemo>,
    stores: BTreeMap<u16, PlanStore>,
    leak: OnceLock<LeakOutcome>,
}

/// What one bundle's plan prefetch cost — per-year fusion accounting for
/// `cw all --trace-scans`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchStats {
    /// Scenario year of the bundle the plans ran against.
    pub year: u16,
    /// Distinct plans prefetched (duplicates across exhibits collapse).
    pub plans: usize,
    /// Fused column passes the prefetch cost.
    pub passes: usize,
}

impl<'a> ExhibitCx<'a> {
    /// Build a context over pre-resolved bundles. [`ExhibitCx::prefetch`]
    /// runs on [`fleet::resolve_threads`]`(None)` workers (`CW_THREADS` or
    /// the machine's parallelism); [`ExhibitCx::with_threads`] overrides
    /// that.
    pub fn new(opts: ExhibitOptions, bundles: &'a BTreeMap<u16, SimBundle>) -> Self {
        let memo = bundles.keys().map(|&y| (y, YearMemo::default())).collect();
        ExhibitCx {
            opts,
            threads: fleet::resolve_threads(None),
            bundles,
            memo,
            stores: BTreeMap::new(),
            leak: OnceLock::new(),
        }
    }

    /// Spread [`ExhibitCx::prefetch`]'s passes over `threads` fleet
    /// workers (1 runs them on the calling thread). Purely a wall-clock
    /// knob: stores, stats and scan counters are the same for any value.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Collect every plan `exhibits` declare ([`Exhibit::plans`]), group
    /// them per bundle, and build each bundle's [`PlanStore`] — the
    /// registry-wide scan fusion step `cw` runs between resolving worlds
    /// and fanning out renders. Every bundle's fused passes join one
    /// job list on the context's fleet workers
    /// ([`ExhibitCx::with_threads`]). Renders then hit the stores through
    /// [`ExhibitCx::exec`]; without prefetch every plan runs standalone
    /// with byte-identical results.
    ///
    /// Requests whose resolved year has no bundle are skipped (their
    /// exhibit's render will fail its own `bundle` lookup, not the whole
    /// prefetch). Returns per-year fusion stats for `--trace-scans`.
    pub fn prefetch(&mut self, exhibits: &[&dyn Exhibit]) -> Vec<PrefetchStats> {
        let mut per_year: BTreeMap<u16, Vec<Plan>> = BTreeMap::new();
        for e in exhibits {
            for req in e.plans() {
                let year = req.need.resolve(&self.opts).year();
                if self.bundles.contains_key(&year) {
                    per_year.entry(year).or_default().push(req.plan);
                }
            }
        }
        let sets: Vec<(&Dataset, &[Plan])> = per_year
            .iter()
            .map(|(year, plans)| (&self.bundles[year].dataset, plans.as_slice()))
            .collect();
        let stores = PlanStore::build_sets(&sets, self.threads);
        let mut stats = Vec::new();
        for (&year, store) in per_year.keys().zip(stores) {
            stats.push(PrefetchStats {
                year,
                plans: store.plans(),
                passes: store.passes(),
            });
            self.stores.insert(year, store);
        }
        stats
    }

    /// A plan runner for `need`'s bundle: serves prefetched results from
    /// the bundle's [`PlanStore`] when [`ExhibitCx::prefetch`] ran, falls
    /// back to standalone execution otherwise.
    pub fn exec(&self, need: Need) -> ScanExec<'_> {
        let s = self.bundle(need);
        match self.stores.get(&s.config.year.year()) {
            Some(store) => ScanExec::with_store(&s.dataset, store),
            None => ScanExec::unplanned(&s.dataset),
        }
    }

    /// The bundle satisfying `need`.
    ///
    /// # Panics
    ///
    /// If the driver did not provide that year's bundle — a driver bug by
    /// contract: drivers resolve [`required_configs`] before rendering.
    pub fn bundle(&self, need: Need) -> &SimBundle {
        let year = need.resolve(&self.opts).year();
        self.bundles
            .get(&year)
            .unwrap_or_else(|| panic!("no bundle for scenario year {year} (driver bug)"))
    }

    fn memo(&self, need: Need) -> (&SimBundle, &YearMemo) {
        let s = self.bundle(need);
        (s, &self.memo[&s.config.year.year()])
    }

    /// `need`'s Table 2 neighborhood rows (computed once per bundle,
    /// through the bundle's plan store when prefetched).
    pub fn table2_rows(&self, need: Need) -> &[NeighborhoodRow] {
        let (_, m) = self.memo(need);
        m.table2
            .get_or_init(|| crate::neighborhood::table2(&self.exec(need), Deployment::standard()))
    }

    /// `need`'s Table 4 geography grid (computed once per bundle).
    pub fn table4_rows(&self, need: Need) -> &[crate::geography::MostDifferentRegion] {
        let (_, m) = self.memo(need);
        m.table4
            .get_or_init(|| crate::geography::table4(&self.exec(need), Deployment::standard()))
    }

    /// `need`'s Tables 8 *and* 9, computed together once per bundle: both
    /// tables group by destination port over the same two fleets, so
    /// [`crate::overlap::table8_and_9`] derives them from one shared
    /// fused scan per fleet.
    fn overlap_rows(&self, need: Need) -> &(Vec<OverlapRow>, Vec<MaliciousOverlapRow>) {
        let (s, m) = self.memo(need);
        m.overlap.get_or_init(|| {
            crate::overlap::table8_and_9(&self.exec(need), Deployment::standard(), &s.telescope)
        })
    }

    /// `need`'s Table 8 telescope-overlap rows (computed once per bundle).
    pub fn table8_rows(&self, need: Need) -> &[OverlapRow] {
        &self.overlap_rows(need).0
    }

    /// `need`'s Table 9 attacker-overlap rows (computed once per bundle).
    pub fn table9_rows(&self, need: Need) -> &[MaliciousOverlapRow] {
        &self.overlap_rows(need).1
    }

    /// `need`'s Table 11 protocol breakdown for `port`, computed once per
    /// bundle.
    pub fn breakdown(
        &self,
        need: Need,
        port: BreakdownPort,
    ) -> &(Vec<ProtocolBreakdownRow>, Vec<UnexpectedShare>) {
        let (s, m) = self.memo(need);
        let cell = match port {
            BreakdownPort::P80 => &m.breakdown80,
            BreakdownPort::P8080 => &m.breakdown8080,
        };
        cell.get_or_init(|| {
            crate::ports::protocol_breakdown(
                &self.exec(need),
                Deployment::standard(),
                &s.reputation,
                port.number(),
            )
        })
    }

    /// `need`'s §3.2 composition statistics (computed once per bundle).
    pub fn composition(&self, need: Need) -> CompositionStats {
        let (_, m) = self.memo(need);
        *m.composition.get_or_init(|| {
            crate::ports::composition_stats(&self.exec(need), Deployment::standard())
        })
    }

    /// The Table 3 leak experiment for this invocation's options, run once
    /// and shared (`table3` and the `all` digest both consume it). The leak
    /// worlds are small enough (~1% of a year scenario) to simulate inline
    /// rather than snapshot; progress goes to stderr like the simulations.
    pub fn leak(&self) -> &LeakOutcome {
        self.leak.get_or_init(|| {
            eprintln!(
                "[cw] running leak experiment (scale {}, seed {:#x}) ...",
                self.opts.scale, self.opts.seed
            );
            let started = std::time::Instant::now();
            let outcome = crate::leak::run(&LeakConfig::beside(
                self.opts.seed,
                self.opts.scale,
                self.opts.fault,
            ));
            eprintln!("[cw] leak experiment complete in {:.1?}", started.elapsed());
            outcome
        })
    }
}

/// One scan an exhibit wants prefetched: the [`Plan`] plus the [`Need`]
/// identifying the bundle it runs against. The driver groups requests per
/// resolved bundle and fuses each group into one [`PlanStore`] build.
#[derive(Debug, Clone)]
pub struct PlanRequest {
    /// Which simulated world the plan scans.
    pub need: Need,
    /// The declared scan.
    pub plan: Plan,
}

impl PlanRequest {
    /// Wrap `plans` for one `need`.
    pub fn all_for(need: Need, plans: Vec<Plan>) -> Vec<PlanRequest> {
        plans
            .into_iter()
            .map(|plan| PlanRequest { need, plan })
            .collect()
    }
}

/// One table, figure, or ablation: a named, pure render over simulated
/// worlds.
pub trait Exhibit: Sync {
    /// The registry name (also the `out/<name>.txt` stem and the `cw`
    /// subcommand).
    fn name(&self) -> &'static str;
    /// A one-line human description for `cw list`.
    fn title(&self) -> &'static str;
    /// The simulated worlds this render consumes. Exhibits that need no
    /// scenario (Table 6) or run their own side experiment (Table 3's
    /// leak worlds, which are small enough to simulate inline) return `&[]`.
    fn needs(&self) -> &'static [Need];
    /// The scans this render will ask for, for up-front fused prefetching
    /// ([`ExhibitCx::prefetch`]). A plan is structural: its [`Need`]
    /// resolves to a bundle under the invocation's options at prefetch
    /// time. The default — no declared plans — is the legacy path: every
    /// scan runs on demand, byte-identically. Declaring plans never
    /// changes rendered bytes, only how many column passes they cost.
    fn plans(&self) -> Vec<PlanRequest> {
        Vec::new()
    }
    /// Render the exhibit's exact stdout text from the provided worlds.
    fn run(&self, cx: &ExhibitCx<'_>) -> String;
}

/// Every exhibit, in canonical (golden-manifest) order.
pub static REGISTRY: &[&dyn Exhibit] = &[
    &ablations::AblationBonferroni,
    &ablations::AblationMedian,
    &ablations::AblationTopk,
    &special::All,
    &main_year::Figure1,
    &main_year::Recommendations,
    &main_year::Section3_2,
    &main_year::Table1,
    &main_year::Table2,
    &special::Table3,
    &main_year::Table4,
    &main_year::Table5,
    &special::Table6,
    &main_year::Table7,
    &main_year::Table8,
    &main_year::Table9,
    &main_year::Table10,
    &main_year::Table11,
    &appendix::Table12,
    &appendix::Table13,
    &appendix::Table14,
    &appendix::Table15,
    &appendix::Table16,
    &appendix::Table17,
    &appendix::TemporalStability,
];

/// Look an exhibit up by registry name.
pub fn find(name: &str) -> Option<&'static dyn Exhibit> {
    REGISTRY.iter().copied().find(|e| e.name() == name)
}

/// The distinct scenario configurations needed to render `exhibits` under
/// `opts` — the deduped simulation job list. Order follows scenario year.
pub fn required_configs(exhibits: &[&dyn Exhibit], opts: &ExhibitOptions) -> Vec<ScenarioConfig> {
    let mut years: Vec<u16> = exhibits
        .iter()
        .flat_map(|e| e.needs())
        .map(|n| n.resolve(opts).year())
        .collect();
    years.sort_unstable();
    years.dedup();
    years
        .into_iter()
        .map(|y| {
            let year = match y {
                2020 => ScenarioYear::Y2020,
                2021 => ScenarioYear::Y2021,
                _ => ScenarioYear::Y2022,
            };
            opts.config(year)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_findable() {
        let mut names: Vec<&str> = REGISTRY.iter().map(|e| e.name()).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate exhibit names");
        for name in names {
            assert!(find(name).is_some());
        }
        assert!(find("table0").is_none());
    }

    #[test]
    fn year_override_moves_default_needs_only() {
        let opts = ExhibitOptions {
            year: Some(ScenarioYear::Y2022),
            ..ExhibitOptions::default()
        };
        assert_eq!(
            Need::Year(ScenarioYear::Y2021).resolve(&opts),
            ScenarioYear::Y2022
        );
        assert_eq!(
            Need::Exact(ScenarioYear::Y2020).resolve(&opts),
            ScenarioYear::Y2020
        );
    }

    #[test]
    fn required_configs_dedupes_across_exhibits() {
        // The full registry needs exactly the three paper years by default.
        let opts = ExhibitOptions::default();
        let configs = required_configs(REGISTRY, &opts);
        let years: Vec<u16> = configs.iter().map(|c| c.year.year()).collect();
        assert_eq!(years, vec![2020, 2021, 2022]);
        for c in &configs {
            assert_eq!(c.seed, DEFAULT_SEED);
            assert_eq!(c.scale, 1.0);
        }
    }
}
