//! The finding-stability grid behind `cw sweep` and `cw degrade`.
//!
//! The paper reports its findings from one observation scale and perfect
//! collection. This module asks whether they survive other scales and
//! degraded collection: it drives a grid over (year × seed × deployment
//! variant × scale), obtains each cell's world through the simulate-once
//! snapshot cache (so every distinct world is computed exactly once, ever
//! — interrupted sweeps resume from where they stopped), and re-checks the
//! directional findings behind Tables 1, 7, 8, 9 and the Table 3 leak
//! experiment in every cell ([`crate::degrade::evaluate`]).
//!
//! Deployment variants are the degradation ladder's fault rungs
//! ([`crate::degrade::ladder`]); the fault-free "none" rung is the paper's
//! deployment. The scale axis is a multiplier on the base configuration's
//! `scale`, so the same grid shape drives both the real `{×1, ×10, ×100}`
//! question and cheap test grids over tiny base scales. `cw sweep` starts
//! from [`SweepGrid::standard`]; `cw degrade` is the
//! [`SweepGrid::ladder`] preset.
//!
//! Findings are checked as *directions*, not magnitudes: every absolute
//! count changes with scale and shrinks under flow loss, but a robust
//! conclusion keeps its sign. A finding is `STABLE` when its direction
//! holds in every cell of its (year, seed) group; otherwise its verdict
//! `BREAKS@<cell>` names the first cell where it flips.

use crate::bundle::SimBundle;
use crate::degrade::{self, FindingEval, Rung};
use crate::leak::{LeakConfig, LeakOutcome};
use crate::report::{header_str, TextTable};
use crate::scenario::ScenarioConfig;
use cw_scanners::population::ScenarioYear;
use std::collections::{BTreeMap, BTreeSet};

/// The sweep grid: the cross product of years × seeds × deployment
/// variants × scale multipliers. The report groups cells by (year, seed);
/// each group reads across its (variant, scale) cells, scales innermost.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    /// Measurement years to sweep.
    pub years: Vec<ScenarioYear>,
    /// Master seeds (replicates; each seed is an independent world).
    pub seeds: Vec<u64>,
    /// Deployment variants — fault rungs from the degradation ladder.
    pub variants: Vec<Rung>,
    /// Scale multipliers applied to the base configuration's scale.
    pub scales: Vec<f64>,
}

/// One distinct (variant, scale) cell of a group: one report column.
struct Cell {
    /// Column label, `<variant>×<mult>` ("none×1", "mild×10").
    label: String,
    variant: Rung,
    /// The absolute scale: the base scale times the multiplier.
    scale: f64,
}

impl SweepGrid {
    /// The canonical scale-sensitivity grid over a base configuration:
    /// one year per entry of `years`, the base seed, the fault-free
    /// deployment, scales ×1/×10/×100.
    pub fn standard(years: Vec<ScenarioYear>, seed: u64) -> SweepGrid {
        SweepGrid {
            years,
            seeds: vec![seed],
            variants: vec![degrade::ladder().remove(0)],
            scales: vec![1.0, 10.0, 100.0],
        }
    }

    /// The fault-ladder preset `cw degrade` runs: one year, one seed, the
    /// four ladder rungs, scale ×1.
    pub fn ladder(year: ScenarioYear, seed: u64) -> SweepGrid {
        SweepGrid {
            years: vec![year],
            seeds: vec![seed],
            variants: degrade::ladder(),
            scales: vec![1.0],
        }
    }

    /// Total number of grid cells (including any duplicates the axes name).
    pub fn cell_count(&self) -> usize {
        self.years.len() * self.seeds.len() * self.variants.len() * self.scales.len()
    }

    /// Number of *distinct* worlds the grid names — the exact number of
    /// simulations a cold sweep performs (and a warm sweep's zero, both
    /// enforced by `tests/sweep.rs` via the simulate-call counter).
    pub fn distinct_configs(&self, base: &ScenarioConfig) -> usize {
        self.groups().len() * self.cells(base).len()
    }

    /// The distinct (year, seed) groups, in axis order.
    fn groups(&self) -> Vec<(ScenarioYear, u64)> {
        let mut seen = BTreeSet::new();
        let mut groups = Vec::new();
        for &year in &self.years {
            for &seed in &self.seeds {
                if seen.insert((year.year(), seed)) {
                    groups.push((year, seed));
                }
            }
        }
        groups
    }

    /// The distinct (variant, scale) cells every group evaluates, in axis
    /// order with scales innermost. A duplicate entry names the same world
    /// and is evaluated once.
    fn cells(&self, base: &ScenarioConfig) -> Vec<Cell> {
        let mut seen = BTreeSet::new();
        let mut cells = Vec::new();
        for variant in &self.variants {
            for &mult in &self.scales {
                let scale = base.scale * mult;
                if seen.insert((variant.label, scale.to_bits())) {
                    cells.push(Cell {
                        label: format!("{}{}", variant.label, scale_label(mult)),
                        variant: *variant,
                        scale,
                    });
                }
            }
        }
        cells
    }
}

/// A human-readable scale-multiplier label ("×1", "×10", "×0.5").
fn scale_label(mult: f64) -> String {
    if mult.fract() == 0.0 && mult.abs() < 1e15 {
        format!("\u{d7}{}", mult as i64)
    } else {
        format!("\u{d7}{mult}")
    }
}

/// A finding's verdict across one group: `STABLE`, or `BREAKS@` and the
/// label of the first cell where its direction fails.
fn verdict(first_break: Option<&str>) -> String {
    match first_break {
        None => "STABLE".to_string(),
        Some(cell) => format!("BREAKS@{cell}"),
    }
}

/// Run the grid and render the finding-stability report `cw sweep` and
/// `cw degrade` print.
///
/// `base` supplies everything the grid doesn't override (the horizon and
/// the scale every multiplier applies to); `obtain` supplies each
/// cell's scenario bundle so the driver chooses the cache policy — routed
/// through [`crate::snapshot::load_or_run`], each distinct world is
/// simulated exactly once ever, and an interrupted sweep resumes without
/// recomputing completed cells. Leak worlds are small, always simulate
/// inline (they never touch the snapshot cache), and are memoized per
/// distinct `(seed, scale, variant)` — they don't depend on the year.
///
/// Cells are obtained and evaluated one at a time, in grid order, so at
/// most one cell's world is resident; each evaluation spreads its fused
/// scans over `threads` fleet workers ([`degrade::evaluate`]).
///
/// The report is a pure function of `(grid, base)`: same inputs → same
/// bytes, cold or warm, for any thread count or window size.
pub fn report(
    grid: &SweepGrid,
    base: ScenarioConfig,
    threads: usize,
    obtain: &dyn Fn(ScenarioConfig) -> SimBundle,
) -> String {
    let groups = grid.groups();
    let cells = grid.cells(&base);
    let mut out =
        header_str("Finding stability sweep: directional findings across faults and scales");
    out.push_str(
        "Each cell simulates (or cache-loads) one world of the (year, seed, variant,\n\
         scale) grid and the leak experiment under the variant's fault plan, then\n\
         re-checks the directional findings behind Tables 1, 7, 8, 9 and the Table 3\n\
         leak. STABLE = direction holds in every cell of the (year, seed) group;\n\
         BREAKS@<cell> names the first cell where it does not.\n\n",
    );
    out.push_str(&format!(
        "Grid: years={:?} seeds={:?} variants={:?} scales={:?}\n",
        grid.years.iter().map(|y| y.year()).collect::<Vec<_>>(),
        grid.seeds
            .iter()
            .map(|s| format!("{s:#x}"))
            .collect::<Vec<_>>(),
        grid.variants.iter().map(|v| v.label).collect::<Vec<_>>(),
        grid.scales
            .iter()
            .map(|&m| scale_label(m))
            .collect::<Vec<_>>(),
    ));
    out.push_str(&format!(
        "Cells: {} ({} distinct worlds; each simulated at most once ever via the cache)\n\n",
        grid.cell_count(),
        groups.len() * cells.len(),
    ));

    let mut leaks: BTreeMap<(u64, u64, &'static str), LeakOutcome> = BTreeMap::new();
    // Per finding, in evaluation order: its name and whether it has held
    // in every cell of every group so far.
    let mut stable: Vec<(&'static str, bool)> = Vec::new();
    for (year, seed) in groups {
        out.push_str(&format!("== year={} seed={seed:#x} ==\n", year.year()));
        let mut worlds = TextTable::new(&[
            "Cell",
            "Loss",
            "Outage",
            "Trunc",
            "Tel 1/N",
            "Events",
            "Distinct payloads",
            "Telescope srcs",
            "Flows lost",
        ]);
        let mut evals: Vec<Vec<FindingEval>> = Vec::with_capacity(cells.len());
        for cell in &cells {
            eprintln!(
                "[cw] sweep cell year={} seed={seed:#x} {} ...",
                year.year(),
                cell.label
            );
            let plan = cell.variant.plan;
            let bundle = obtain(
                ScenarioConfig { year, ..base }
                    .with_seed(seed)
                    .with_scale(cell.scale)
                    .with_fault(plan),
            );
            let leak = leaks
                .entry((seed, cell.scale.to_bits(), cell.variant.label))
                .or_insert_with(|| crate::leak::run(&LeakConfig::beside(seed, cell.scale, plan)));
            worlds.row(vec![
                cell.label.clone(),
                format!("{:.0}%", plan.flow_loss * 100.0),
                format!("{:.0}%×{}", plan.outage * 100.0, plan.outage_windows.max(1)),
                format!("{:.0}%", plan.truncation * 100.0),
                format!("1/{}", plan.telescope_sample.max(1)),
                bundle.dataset.len().to_string(),
                bundle.dataset.interner().payload_count().to_string(),
                bundle.telescope.unique_source_count().to_string(),
                bundle.stats.flows_lost.to_string(),
            ]);
            evals.push(degrade::evaluate(&bundle, leak, threads));
        }
        out.push_str(&format!("{}\n", worlds.render()));

        // Finding × cell grid with the per-group verdict.
        let headers: Vec<&str> = std::iter::once("Finding")
            .chain(cells.iter().map(|c| c.label.as_str()))
            .chain(std::iter::once("Verdict"))
            .collect();
        let mut findings = TextTable::new(&headers);
        let n_findings = evals.first().map_or(0, Vec::len);
        for f in 0..n_findings {
            let name = evals[0][f].name;
            let mut row = vec![name.to_string()];
            row.extend(
                evals
                    .iter()
                    .map(|e| format!("{:.2}{}", e[f].metric, if e[f].holds { "" } else { " !" })),
            );
            let first_break = evals.iter().position(|e| !e[f].holds);
            row.push(verdict(first_break.map(|i| cells[i].label.as_str())));
            findings.row(row);
            if stable.len() == f {
                stable.push((name, true));
            }
            stable[f].1 &= first_break.is_none();
        }
        out.push_str(&format!("{}\n", findings.render()));
    }

    let n_stable = stable.iter().filter(|(_, holds)| *holds).count();
    out.push_str(&format!(
        "{n_stable}/{} findings stable across every swept cell\n",
        stable.len(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The verdict tokens a report's finding grids end their rows with.
    fn verdicts(report: &str) -> usize {
        report
            .lines()
            .filter_map(|l| l.split_whitespace().last())
            .filter(|t| *t == "STABLE" || t.starts_with("BREAKS@"))
            .count()
    }

    #[test]
    fn standard_grid_shape() {
        let g = SweepGrid::standard(vec![ScenarioYear::Y2021], 7);
        assert_eq!(g.cell_count(), 3);
        assert_eq!(g.scales, vec![1.0, 10.0, 100.0]);
        assert_eq!(g.variants[0].label, "none");
        assert!(g.variants[0].plan.is_none());
    }

    #[test]
    fn distinct_configs_dedupes_identical_cells() {
        let base = ScenarioConfig::fast(ScenarioYear::Y2021);
        let g = SweepGrid {
            years: vec![ScenarioYear::Y2021, ScenarioYear::Y2021],
            seeds: vec![1, 1],
            variants: vec![degrade::ladder().remove(0)],
            scales: vec![1.0, 1.0, 2.0],
        };
        assert_eq!(g.cell_count(), 12);
        assert_eq!(g.distinct_configs(&base), 2);
    }

    #[test]
    fn scale_labels_render_compactly() {
        assert_eq!(scale_label(1.0), "\u{d7}1");
        assert_eq!(scale_label(100.0), "\u{d7}100");
        assert_eq!(scale_label(0.5), "\u{d7}0.5");
    }

    #[test]
    fn report_is_deterministic_and_has_a_verdict_per_finding() {
        let base = ScenarioConfig::fast(ScenarioYear::Y2021).with_scale(0.01);
        let grid = SweepGrid {
            years: vec![ScenarioYear::Y2021],
            seeds: vec![base.seed],
            variants: vec![degrade::ladder().remove(0)],
            scales: vec![1.0, 2.0],
        };
        let render = || report(&grid, base, 1, &|cfg| SimBundle::run(cfg));
        let a = render();
        assert_eq!(a, render());
        // Every tracked finding gets exactly one verdict token per group.
        assert_eq!(verdicts(&a), 5, "one verdict per tracked finding:\n{a}");
        assert!(a.contains("findings stable across every swept cell"));
        assert!(a.contains("none\u{d7}2"));
    }
}
