//! Reproducibility: identical configurations must yield bit-identical
//! analyses — the property that makes the published EXPERIMENTS.md values
//! regenerable anywhere.

use cloud_watching::core::bundle::SimBundle;
use cloud_watching::core::exhibit::{ExhibitCx, ExhibitOptions, REGISTRY};
use cloud_watching::core::fleet;
use cloud_watching::core::neighborhood;
use cloud_watching::core::scenario::{Scenario, ScenarioConfig, DEFAULT_SEED, DEFAULT_WINDOW};
use cloud_watching::core::snapshot;
use cloud_watching::core::{PlanStore, ScanExec};
use cloud_watching::netsim::fault::FaultPlan;
use cloud_watching::netsim::rng::{fork_seed, SimRng};
use cloud_watching::netsim::sha256::sha256_hex;
use cloud_watching::netsim::snap::{self, SnapWriter};
use cloud_watching::netsim::time::SimDuration;
use cloud_watching::scanners::population::ScenarioYear;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The full snapshot wire image of a bundle: events, verdicts,
/// fingerprints, interner id order, telescope counters, index sizes and
/// run stats in one byte string — equality here is the strongest
/// equivalence the pipeline can state.
fn bundle_bytes(b: &SimBundle) -> Vec<u8> {
    let mut w = SnapWriter::new();
    b.snap_write(&mut w);
    w.into_bytes()
}

fn run(seed: u64) -> Scenario {
    Scenario::run(
        ScenarioConfig::fast(ScenarioYear::Y2021)
            .with_seed(seed)
            .with_scale(0.03),
    )
}

#[test]
fn same_seed_same_world() {
    let a = run(42);
    let b = run(42);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.dataset.len(), b.dataset.len());
    // Event streams identical, not just counts.
    for (ea, eb) in a.dataset.events().zip(b.dataset.events()) {
        assert_eq!(ea.event, eb.event);
        assert_eq!(ea.verdict, eb.verdict);
    }
    // Telescope counters identical.
    let ta = a.telescope.borrow();
    let tb = b.telescope.borrow();
    assert_eq!(ta.total_packets(), tb.total_packets());
    assert_eq!(
        ta.unique_scanners_per_ip(22).unwrap(),
        tb.unique_scanners_per_ip(22).unwrap()
    );
}

#[test]
fn same_seed_same_tables() {
    let a = run(7);
    let b = run(7);
    let table2 = |s: &Scenario| {
        let store = PlanStore::build(&s.dataset, &neighborhood::table2_plans(s.deployment));
        neighborhood::table2(&ScanExec::with_store(&s.dataset, &store), s.deployment)
    };
    let (ra, rb) = (table2(&a), table2(&b));
    for (x, y) in ra.iter().zip(&rb) {
        assert_eq!(x.n, y.n);
        assert_eq!(x.pct_different, y.pct_different);
        assert_eq!(x.avg_phi, y.avg_phi);
    }
}

#[test]
fn different_seeds_different_worlds() {
    let a = run(1);
    let b = run(2);
    assert_ne!(
        a.dataset.len(),
        b.dataset.len(),
        "different seeds should perturb the event count"
    );
}

/// The reference build every equivalence test compares against: one window
/// covering the whole horizon.
fn one_window_reference(config: ScenarioConfig) -> Scenario {
    Scenario::run_with_window(config, config.horizon)
}

/// The windowed-build contract: chunking the engine run into time windows
/// and folding the telescope at each boundary must reproduce the
/// one-window reference build byte-for-byte, for a small and the default
/// window size.
#[test]
fn streaming_build_byte_identical_across_window_and_shard_matrix() {
    let base = ScenarioConfig::fast(ScenarioYear::Y2021)
        .with_seed(42)
        .with_scale(0.02);
    let reference = one_window_reference(base);
    let stream = reference
        .stream
        .expect("streaming run records stream stats");
    assert_eq!(stream.windows, 1, "whole horizon is one window");
    let reference = bundle_bytes(&reference.into_bundle());
    for (label, window) in [("small", SimDuration::HOUR), ("default", DEFAULT_WINDOW)] {
        let s = Scenario::run_with_window(base, window);
        let stream = s.stream.expect("streaming run records stream stats");
        assert!(stream.windows > 1, "window {label} should chunk the run");
        assert!(
            reference == bundle_bytes(&s.into_bundle()),
            "streaming drifted at window={label}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property form: *any* window size in [1s, one week] is observably a
    /// no-op.
    #[test]
    fn streaming_window_size_is_observably_a_noop(
        window_secs in 1u64..=604_800,
        seed in any::<u64>(),
    ) {
        let base = ScenarioConfig::fast(ScenarioYear::Y2021)
            .with_seed(seed)
            .with_scale(0.01);
        let reference = bundle_bytes(&one_window_reference(base).into_bundle());
        let s = Scenario::run_with_window(base, SimDuration::from_secs(window_secs));
        let streamed = bundle_bytes(&s.into_bundle());
        prop_assert!(
            reference == streamed,
            "streaming drifted at window={window_secs}s"
        );
    }
}

/// Simulate all three years' worlds at `scale` with `runner`, keyed by
/// year, with the options that select them.
fn worlds_with(
    scale: f64,
    threads: usize,
    runner: fn(ScenarioConfig) -> SimBundle,
) -> (ExhibitOptions, BTreeMap<u16, SimBundle>) {
    let opts = ExhibitOptions {
        scale,
        seed: DEFAULT_SEED,
        year: None,
        fault: FaultPlan::none(),
        ..ExhibitOptions::default()
    };
    let years = [
        ScenarioYear::Y2020,
        ScenarioYear::Y2021,
        ScenarioYear::Y2022,
    ];
    let configs: Vec<ScenarioConfig> = years
        .iter()
        .map(|&y| ScenarioConfig::fast(y).with_scale(opts.scale))
        .collect();
    let bundles = fleet::map(configs, threads, |_, c| runner(*c))
        .into_iter()
        .map(|b| (b.config.year.year(), b))
        .collect();
    (opts, bundles)
}

/// Render every registered exhibit through `cx`.
fn render_registry(cx: &ExhibitCx<'_>) -> BTreeMap<&'static str, String> {
    REGISTRY.iter().map(|e| (e.name(), e.run(cx))).collect()
}

/// Render every registered exhibit from bundles of all three years at
/// `scale`, simulating each year's world with `runner`.
fn render_all_with(
    scale: f64,
    threads: usize,
    runner: fn(ScenarioConfig) -> SimBundle,
) -> BTreeMap<&'static str, String> {
    let (opts, bundles) = worlds_with(scale, threads, runner);
    render_registry(&ExhibitCx::new(opts, &bundles))
}

/// Render every registered exhibit from scale-0.02 bundles of all three
/// years (the default simulation path).
fn render_all(threads: usize) -> BTreeMap<&'static str, String> {
    render_all_with(0.02, threads, SimBundle::run)
}

/// All 25 exhibits render the exact same bytes whether the worlds behind
/// them ran in day windows or in the one-window reference build.
#[test]
fn exhibits_byte_identical_streaming_vs_materialized() {
    let materialized = render_all_with(0.02, 1, |c| one_window_reference(c).into_bundle());
    assert_eq!(materialized.len(), REGISTRY.len());
    let streamed = render_all_with(0.02, 1, |c| {
        Scenario::run_with_window(c, SimDuration::DAY).into_bundle()
    });
    for (name, text) in &materialized {
        assert_eq!(
            text, &streamed[name],
            "exhibit {name} drifted between materialized and streaming builds"
        );
    }
}

/// All 25 exhibits render the exact same bytes whatever the fleet
/// worker-thread count the worlds were built at — the user-facing face of
/// the fleet's determinism contract — and whether their scans hit the
/// registry's prefetched plan stores or run on demand.
#[test]
fn exhibits_byte_identical_across_shard_and_thread_matrix() {
    let (opts, bundles) = worlds_with(0.02, 1, SimBundle::run);
    let baseline = render_registry(&ExhibitCx::new(opts, &bundles));
    assert_eq!(baseline.len(), REGISTRY.len());
    // The baseline's own worlds, rendered the way `cw all` renders them.
    let mut cx = ExhibitCx::new(opts, &bundles).with_threads(2);
    cx.prefetch(REGISTRY);
    let prefetched = render_registry(&cx);
    for (name, text) in &baseline {
        assert_eq!(
            text, &prefetched[name],
            "exhibit {name} drifted under prefetch"
        );
    }
    for threads in [2, 8] {
        let rendered = render_all(threads);
        for (name, text) in &baseline {
            assert_eq!(
                text, &rendered[name],
                "exhibit {name} drifted at threads={threads}"
            );
        }
    }
}

/// Whether `word` occurs in `text` as a whole word (`rg -w` semantics:
/// not preceded or followed by a letter, digit or underscore).
fn has_word(text: &str, word: &str) -> bool {
    text.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .any(|w| w == word)
}

/// The exhibits whose one `=== … ===` header names the main year they
/// render: 2021, or the `--year` override.
const MAIN_YEAR_HEADERS: [&str; 10] = [
    "table2",
    "table4",
    "table5",
    "table7",
    "table8",
    "table9",
    "table10",
    "table11",
    "section3_2",
    "figure1",
];

/// The single-year appendix exhibits, whose one `=== … ===` header names
/// the year they render: their appendix year, or the `--year` override.
const APPENDIX_YEAR_HEADERS: [&str; 5] = ["table12", "table13", "table15", "table16", "table17"];

/// The `all` digest's section headers on the main year's world.
const ALL_MAIN_YEAR_SECTIONS: [&str; 4] =
    ["Table 2 (", "Table 4 (", "Table 11 + ", "Table 7 sample"];

/// Every main-year and single-year appendix header, and each of the `all`
/// digest's main-year section headers, names `year` and no other
/// collection year.
fn assert_headers_name_year(rendered: &BTreeMap<&str, String>, year: u16) {
    let headers = |name: &str| -> Vec<String> {
        rendered[name]
            .lines()
            .filter_map(|l| l.strip_prefix("=== "))
            .map(str::to_string)
            .collect()
    };
    let names_year = |h: &str| {
        [2020u16, 2021, 2022]
            .iter()
            .all(|&y| h.contains(&y.to_string()) == (y == year))
    };
    for name in MAIN_YEAR_HEADERS.iter().chain(&APPENDIX_YEAR_HEADERS) {
        let h = headers(name);
        assert_eq!(h.len(), 1, "{name} headers: {h:?}");
        assert!(names_year(&h[0]), "{name} renders {year}: {}", h[0]);
    }
    let sections: Vec<String> = headers("all")
        .into_iter()
        .filter(|h| ALL_MAIN_YEAR_SECTIONS.iter().any(|p| h.starts_with(p)))
        .collect();
    assert_eq!(sections.len(), 4, "all sections: {sections:?}");
    for h in &sections {
        assert!(names_year(h), "all renders {year}: {h}");
    }
}

/// Tiny worlds (a handful of actors per vantage, empty cells, chi² tables
/// with zero expected counts) must still render every exhibit for every
/// year without a panic, and never print a non-finite number. The
/// smallest worlds render once more under `--year 2021` and once more
/// under `--year 2022`, whose headers must name that year.
#[test]
fn tiny_worlds_render_every_exhibit_without_nan_or_inf() {
    for scale in [0.001, 0.01] {
        let (opts, bundles) = worlds_with(scale, 2, SimBundle::run);
        let years: &[Option<ScenarioYear>] = if scale == 0.001 {
            &[None, Some(ScenarioYear::Y2021), Some(ScenarioYear::Y2022)]
        } else {
            &[None]
        };
        for &year in years {
            let opts = ExhibitOptions { year, ..opts };
            let rendered = render_registry(&ExhibitCx::new(opts, &bundles));
            assert_eq!(rendered.len(), REGISTRY.len());
            for (name, text) in &rendered {
                for bad in ["NaN", "inf"] {
                    assert!(
                        !has_word(text, bad),
                        "exhibit {name} prints {bad} at scale {scale}, year {year:?}:\n{text}"
                    );
                }
            }
            if let Some(year) = year {
                assert_headers_name_year(&rendered, year.year());
            }
        }
    }
}

/// The faulted world [`world_bytes_match_pinned_digests`] pins: every
/// fault kind at a non-trivial rate on a scale-0.03 2021 world.
fn faulted_world() -> ScenarioConfig {
    let plan = FaultPlan {
        flow_loss: 0.15,
        outage: 0.10,
        outage_windows: 2,
        truncation: 0.30,
        truncate_to: 32,
        telescope_sample: 2,
    };
    ScenarioConfig::fast(ScenarioYear::Y2021)
        .with_scale(0.03)
        .with_fault(plan)
}

/// SHA-256 of [`bundle_bytes`] for worlds whose bytes must not move: the
/// default-seed world of each year at scale 0.01, then [`faulted_world`].
/// A change that moves any byte of a world, including counters no exhibit
/// renders, fails here. Re-pin only when a change is meant to move them.
/// The faulted world's digest also pins its fault schedules, which are
/// pure functions of the seed: a fixed non-trivial [`FaultPlan`] is part of
/// world identity, and the degraded world is itself deterministic.
const PINNED_WORLD_DIGESTS: [&str; 4] = [
    "0870f94c5743c3bdf1bfa371144b9a88af5904ab7630d2cff14b8a5d81c160e1",
    "31ee947f8d3bb90f1641ce60f6a7ec8ff90b9b423e1bf05e572f54a486a5002b",
    "7cad52c8849ef19378ada636d62b83aea62b4e010f984dcaf8a8cc5fc78e20e3",
    "8139a9783a77bce22fdc20019e8e852ccc7d2fe8d740d56b54d9118a2cf75953",
];

#[test]
fn world_bytes_match_pinned_digests() {
    let years = [
        ScenarioYear::Y2020,
        ScenarioYear::Y2021,
        ScenarioYear::Y2022,
    ];
    let mut configs: Vec<ScenarioConfig> = years
        .iter()
        .map(|&y| ScenarioConfig::fast(y).with_scale(0.01))
        .collect();
    configs.push(faulted_world());
    // Each world also goes through the streamed snapshot write `cw` uses,
    // so the pinned digests pin the cached file too.
    let dir = std::env::temp_dir().join(format!("cw-pinned-worlds-{}", std::process::id()));
    let worlds = fleet::map(configs, 2, |_, c| {
        let b = SimBundle::run(*c);
        let bytes = bundle_bytes(&b);
        let path = snapshot::store_in(&dir, &b).expect("snapshot written");
        let file = std::fs::read(path).expect("snapshot read back");
        assert!(
            file == snap::seal(&bytes),
            "{:?}: the stored snapshot is not the sealed payload",
            c.year
        );
        (sha256_hex(&bytes), b.stats.flows_lost, b.dataset.len())
    });
    let _ = std::fs::remove_dir_all(&dir);
    let (_, flows_lost, events) = &worlds[3];
    assert!(*flows_lost > 0, "a 15% loss plan must actually drop flows");
    assert!(*events > 0, "the degraded world still records");
    let digests: Vec<&str> = worlds.iter().map(|w| w.0.as_str()).collect();
    assert!(
        digests == PINNED_WORLD_DIGESTS,
        "world bytes moved; the new digests are:\n{digests:#?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Fleet results are a pure function of the input list: invariant
    /// under worker-thread count (1, 2, 8) and under any permutation of
    /// the shard inputs (permuting specs and un-permuting results gives
    /// the serial baseline back).
    #[test]
    fn fleet_map_invariant_under_threads_and_permutation(
        master in any::<u64>(),
        n in 1usize..24,
        threads in prop::sample::select(vec![1usize, 2, 8]),
        perm_seed in any::<u64>(),
    ) {
        // Each job consumes its own forked RNG stream — a miniature
        // scenario run (seed-split, state-free, deterministic).
        let specs: Vec<u64> = (0..n as u64).map(|i| fork_seed(master, i)).collect();
        let job = |i: usize, spec: &u64| {
            let mut rng = SimRng::seed_from_u64(*spec);
            let mut acc = i as u64;
            for _ in 0..64 {
                acc = acc.wrapping_mul(3).wrapping_add(rng.next_u64());
            }
            acc
        };
        let baseline = fleet::map(specs.clone(), 1, job);
        prop_assert_eq!(&baseline, &fleet::map(specs.clone(), threads, job));

        let mut order: Vec<usize> = (0..n).collect();
        SimRng::seed_from_u64(perm_seed).shuffle(&mut order);
        let permuted: Vec<u64> = order.iter().map(|&i| specs[i]).collect();
        // The job only sees its spec, not its position, in this variant.
        let permuted_out = fleet::map(permuted, threads, |_, spec| job(0, spec));
        let positional: Vec<u64> = specs.iter().map(|s| job(0, s)).collect();
        let mut unpermuted = vec![0u64; n];
        for (k, &i) in order.iter().enumerate() {
            unpermuted[i] = permuted_out[k];
        }
        prop_assert_eq!(positional, unpermuted);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The none-plan gate: any all-zero-rate plan (whatever its shape
    /// knobs say) is `is_none`, takes the legacy fault-free code path, and
    /// produces a world byte-identical to a config that never mentioned
    /// faults at all.
    #[test]
    fn zero_rate_fault_plan_is_byte_identical_to_no_plan(
        seed in any::<u64>(),
        windows in 1u32..5,
        keep in prop::sample::select(vec![0u32, 16, 64, 1024]),
    ) {
        let zero = FaultPlan {
            flow_loss: 0.0,
            outage: 0.0,
            outage_windows: windows,
            truncation: 0.0,
            truncate_to: keep,
            telescope_sample: 1,
        };
        prop_assert!(zero.is_none());
        let base = ScenarioConfig::fast(ScenarioYear::Y2021)
            .with_seed(seed)
            .with_scale(0.01);
        let a = Scenario::run(base);
        let b = Scenario::run(base.with_fault(zero));
        prop_assert_eq!(a.stats, b.stats);
        prop_assert_eq!(a.stats.flows_lost, 0);
        prop_assert_eq!(a.dataset.len(), b.dataset.len());
        for (ea, eb) in a.dataset.events().zip(b.dataset.events()) {
            prop_assert_eq!(&ea.event, &eb.event);
            prop_assert_eq!(ea.verdict, eb.verdict);
        }
        prop_assert_eq!(
            a.telescope.borrow().total_packets(),
            b.telescope.borrow().total_packets()
        );
    }
}
