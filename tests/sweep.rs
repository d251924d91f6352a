//! The `cw sweep` simulate-once cache contract, proved with the
//! process-global simulate-call counter: a cold sweep over an N-cell grid
//! performs exactly `distinct_configs` simulations, a warm sweep performs
//! zero, the report bytes are identical either way, and an interrupted
//! sweep resumes from the snapshot cache without recomputing any
//! completed cell.
//!
//! The counter ([`snapshot::simulations_performed`]) is process-global, so
//! every test that reads deltas holds `SIM_LOCK` — Rust runs tests in one
//! binary on parallel threads, and a concurrent simulation would pollute
//! the deltas. Leak worlds never go through the cache layer and therefore
//! never move the counter; only cell worlds do.

use cloud_watching::core::bundle::SimBundle;
use cloud_watching::core::scenario::ScenarioConfig;
use cloud_watching::core::sweep::SweepGrid;
use cloud_watching::core::{degrade, snapshot, sweep};
use cloud_watching::scanners::population::ScenarioYear;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Mutex;

static SIM_LOCK: Mutex<()> = Mutex::new(());

/// A private, empty cache directory for one test.
fn scratch_cache(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cw-sweep-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The 2-cell test grid: one year, one seed, the fault-free variant,
/// scales ×1/×2 over a tiny fast-config base.
fn tiny_grid() -> (SweepGrid, ScenarioConfig) {
    let base = ScenarioConfig::fast(ScenarioYear::Y2021)
        .with_seed(4_242)
        .with_scale(0.01);
    let grid = SweepGrid {
        years: vec![ScenarioYear::Y2021],
        seeds: vec![base.seed],
        variants: vec![degrade::ladder().remove(0)],
        scales: vec![1.0, 2.0],
    };
    (grid, base)
}

/// The verdict tokens a report's finding grids end their rows with.
fn verdicts(report: &str) -> usize {
    report
        .lines()
        .filter_map(|l| l.split_whitespace().last())
        .filter(|t| *t == "STABLE" || t.starts_with("BREAKS@"))
        .count()
}

#[test]
fn cold_sweep_simulates_each_distinct_cell_exactly_once_and_warm_none() {
    let _guard = SIM_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (tiny, base) = tiny_grid();
    // 2 variants × 2 scales: still one (year, seed) group, now 4 cells.
    let mut wide = tiny.clone();
    wide.variants = degrade::ladder()[..2].to_vec();
    for (tag, grid, cells) in [("coldwarm", tiny, 2), ("coldwarm-wide", wide, 4)] {
        let dir = scratch_cache(tag);
        let distinct = grid.distinct_configs(&base) as u64;
        assert_eq!(distinct, cells, "test grid names {cells} distinct worlds");
        let run = || {
            sweep::report(&grid, base, 1, &|cfg| {
                snapshot::load_or_run_in(&dir, cfg, true).0
            })
        };

        let sims0 = snapshot::simulations_performed();
        let cold = run();
        let cold_sims = snapshot::simulations_performed() - sims0;
        assert_eq!(
            cold_sims, distinct,
            "cold sweep must simulate exactly the distinct cells"
        );

        let warm = run();
        let warm_sims = snapshot::simulations_performed() - sims0 - cold_sims;
        assert_eq!(warm_sims, 0, "warm sweep must be all snapshot hits");
        assert_eq!(
            cold, warm,
            "sweep report must be cache-invariant, byte for byte"
        );

        // One group: one verdict per tracked finding, and a finding grid
        // with one column per cell between "Finding" and "Verdict".
        assert_eq!(verdicts(&cold), 5, "one verdict per finding:\n{cold}");
        let header = cold
            .lines()
            .find(|l| l.starts_with("Finding"))
            .expect("finding grid header");
        assert_eq!(
            header.split_whitespace().count() as u64,
            cells + 2,
            "one column per cell: {header}"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn duplicate_grid_axes_never_cost_extra_simulations() {
    let _guard = SIM_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = scratch_cache("dupes");
    let (mut grid, base) = tiny_grid();
    // Same worlds named many more times: 2 years × 2 seeds × 4 scale
    // entries = 16 cells, still 2 distinct worlds.
    grid.years = vec![ScenarioYear::Y2021, ScenarioYear::Y2021];
    grid.seeds = vec![base.seed, base.seed];
    grid.scales = vec![1.0, 1.0, 2.0, 2.0];
    assert_eq!(grid.cell_count(), 16);
    assert_eq!(grid.distinct_configs(&base), 2);

    let sims0 = snapshot::simulations_performed();
    let report = sweep::report(&grid, base, 1, &|cfg| {
        snapshot::load_or_run_in(&dir, cfg, true).0
    });
    assert_eq!(
        snapshot::simulations_performed() - sims0,
        2,
        "16 named cells, 2 distinct worlds, 2 simulations"
    );
    assert!(report.contains("16 (2 distinct worlds"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interrupted_sweep_resumes_without_recomputing_completed_cells() {
    let _guard = SIM_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = scratch_cache("resume");
    let (grid, base) = tiny_grid();
    let sims0 = snapshot::simulations_performed();

    // First attempt dies on its second world-obtain — after the first
    // cell's simulation already landed in the cache.
    let obtained = std::cell::Cell::new(0usize);
    let interrupted = catch_unwind(AssertUnwindSafe(|| {
        sweep::report(&grid, base, 1, &|cfg| {
            let i = obtained.get();
            obtained.set(i + 1);
            if i == 1 {
                panic!("injected sweep interruption before obtain #{i}");
            }
            snapshot::load_or_run_in(&dir, cfg, true).0
        })
    }));
    assert!(interrupted.is_err(), "the injected panic must surface");
    let after_crash = snapshot::simulations_performed() - sims0;
    assert_eq!(after_crash, 1, "one cell completed before the interruption");

    // The rerun resumes: the completed cell is a cache hit, only the
    // remaining cell simulates — the world total stays at distinct_configs.
    let resumed = sweep::report(&grid, base, 1, &|cfg| {
        snapshot::load_or_run_in(&dir, cfg, true).0
    });
    let total = snapshot::simulations_performed() - sims0;
    assert_eq!(
        total,
        grid.distinct_configs(&base) as u64,
        "resume must not recompute the completed cell"
    );

    // And the resumed report equals a from-scratch warm report.
    let warm = sweep::report(&grid, base, 1, &|cfg| {
        snapshot::load_or_run_in(&dir, cfg, true).0
    });
    assert_eq!(resumed, warm);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn report_bytes_are_the_same_at_any_thread_count() {
    let _guard = SIM_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = scratch_cache("threads");
    let (grid, base) = tiny_grid();
    let run = |threads| {
        sweep::report(&grid, base, threads, &|cfg| {
            snapshot::load_or_run_in(&dir, cfg, true).0
        })
    };
    assert_eq!(run(1), run(4));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn leak_worlds_never_touch_the_simulate_counter() {
    let _guard = SIM_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (grid, base) = tiny_grid();
    // Obtain without the cache layer: the counter must stay untouched even
    // though the sweep simulates cell worlds (inline) and leak worlds.
    let sims0 = snapshot::simulations_performed();
    let report = sweep::report(&grid, base, 1, &|cfg| SimBundle::run(cfg));
    assert_eq!(
        snapshot::simulations_performed() - sims0,
        0,
        "the counter counts cache-layer simulations only"
    );
    assert!(report.contains("findings stable across every swept cell"));
}
