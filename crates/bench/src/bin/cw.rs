//! `cw` — the multicall exhibit driver.
//!
//! One binary replaces the 27 single-purpose regenerators:
//!
//! ```text
//! cw list                 # every exhibit in the registry
//! cw table1               # render one exhibit to stdout
//! cw all                  # render all 25 exhibits into out/<name>.txt
//! cw export               # write the released dataset under out/
//! cw sweep                # finding stability across 10x/100x scales
//! cw degrade              # the same report over the fault ladder at x1
//! ```
//!
//! The driver resolves the union of simulated worlds the requested
//! exhibits need ([`cw_core::exhibit::required_configs`]), obtains each
//! distinct world exactly once — from the content-addressed snapshot cache
//! when possible ([`cw_core::snapshot`]), simulating on a miss — and fans
//! the shared bundles out to every render. Renders are byte-identical to
//! the retired binaries for any `--threads` value, with or without the
//! cache.
//!
//! # Graceful degradation and exit codes
//!
//! `cw all` and `cw <exhibit>` isolate every world-obtain and every render
//! with the fleet's `catch_unwind` + one-retry machinery
//! ([`cw_core::fleet::try_map`]): a panicking exhibit costs only its own
//! output (`out/<name>.txt`, or the one stdout render), every other
//! exhibit still renders, and a per-job failure summary lands on stderr.
//! Exit codes are distinct by failure class:
//!
//! - `0` — success;
//! - `2` — usage error (unknown command/flag);
//! - `3` — I/O error writing outputs;
//! - `4` — one or more worlds or renders failed (after retries).
//!
//! Setting `CW_INJECT_PANIC=<exhibit>` makes exactly that render panic —
//! the hook `scripts/verify.sh` uses to prove the isolation contract.
//! `CW_INJECT_PANIC=sweep:<i>` instead aborts the grid driver (`cw sweep`
//! or `cw degrade`) on its i-th (0-based) world-obtain, the hook the
//! sweep-resume contract is tested with: rerunning after the abort resumes
//! from the snapshot cache without recomputing completed cells.

use cw_bench::{check_scale, parse_from, parse_scale, threads, RunOptions, MAX_REPLICATES, USAGE};
use cw_core::exhibit::{self, Exhibit, ExhibitCx, ExhibitOptions};
use cw_core::fleet::{self, JobError};
use cw_core::scenario::ScenarioConfig;
use cw_core::snapshot::{self, Provenance};
use cw_core::sweep::SweepGrid;
use cw_core::SimBundle;
use cw_scanners::population::ScenarioYear;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else {
        eprintln!("error: missing command");
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    // `sweep` owns extra grid flags, so it parses its own argument list;
    // every other command shares `parse_from`.
    let code = if command == "sweep" {
        cmd_sweep(args.collect())
    } else {
        let opts = parse_from(args);
        match command.as_str() {
            "list" => {
                cmd_list();
                0
            }
            "all" => cmd_all(opts),
            "export" => cmd_export(opts),
            "degrade" => cmd_degrade(opts),
            name => match exhibit::find(name) {
                Some(e) => cmd_exhibit(e, opts),
                None => {
                    eprintln!("error: unknown command or exhibit '{name}' (try `cw list`)");
                    eprintln!("{USAGE}");
                    2
                }
            },
        }
    };
    std::process::exit(code);
}

fn exhibit_options(opts: RunOptions) -> ExhibitOptions {
    ExhibitOptions {
        scale: opts.scale,
        seed: opts.seed,
        year: opts.year,
        fault: opts.fault,
        ..ExhibitOptions::default()
    }
}

/// Obtain one simulated world — snapshot cache first (unless disabled),
/// simulating and filling the cache on a miss — with progress on stderr.
fn obtain(config: ScenarioConfig, use_cache: bool) -> SimBundle {
    eprintln!(
        "[cw] obtaining {} world (scale {}, seed {:#x}) ...",
        config.year.year(),
        config.scale,
        config.seed
    );
    let (bundle, provenance) = snapshot::load_or_run(config, use_cache);
    match provenance {
        Provenance::CacheHit { read_secs } => eprintln!(
            "[cw] {} world: snapshot hit ({:.0} ms read, {} events)",
            config.year.year(),
            read_secs * 1e3,
            bundle.dataset.len()
        ),
        Provenance::Simulated {
            sim_secs,
            write_secs,
        } => eprintln!(
            "[cw] {} world: simulated in {:.1}s ({} events{})",
            config.year.year(),
            sim_secs,
            bundle.dataset.len(),
            match write_secs {
                Some(w) => format!(", snapshot written in {:.0} ms", w * 1e3),
                None => String::new(),
            }
        ),
    }
    bundle
}

/// Obtain every world in `configs` in parallel with per-job fault
/// isolation, keyed by scenario year. Failed worlds come back as
/// [`JobError`]s instead of poisoning the whole run.
fn obtain_all(
    configs: Vec<ScenarioConfig>,
    n_threads: usize,
    use_cache: bool,
) -> (BTreeMap<u16, SimBundle>, Vec<JobError>) {
    let results = fleet::try_map(configs, n_threads, |_, cfg| obtain(*cfg, use_cache));
    let mut bundles = BTreeMap::new();
    let mut errors = Vec::new();
    for r in results {
        match r {
            Ok(b) => {
                bundles.insert(b.config.year.year(), b);
            }
            Err(e) => errors.push(e),
        }
    }
    (bundles, errors)
}

/// Print the per-job failure summary `cw all` / `cw <exhibit>` report on
/// stderr before exiting nonzero.
fn print_failure_summary(world_errors: &[JobError], render_errors: &[(String, JobError)]) {
    eprintln!(
        "[cw] failure summary: {} world(s), {} render(s) failed",
        world_errors.len(),
        render_errors.len()
    );
    for e in world_errors {
        eprintln!("[cw]   world {e}");
    }
    for (name, e) in render_errors {
        eprintln!("[cw]   exhibit '{name}': {e}");
    }
}

fn cmd_list() {
    for e in exhibit::REGISTRY {
        println!("{:<20} {}", e.name(), e.title());
    }
}

/// Report one bundle's prefetch fusion stats on stderr (`--trace-scans`).
fn trace_prefetch(stats: &[exhibit::PrefetchStats]) {
    for s in stats {
        eprintln!(
            "[cw] plan prefetch: year {}: {} plans fused into {} passes",
            s.year, s.plans, s.passes
        );
    }
}

/// Report the invocation-wide scan counters on stderr (`--trace-scans`):
/// `fused` column passes actually run vs `planned` logical scans served.
/// `scripts/verify.sh` parses this line for the scan-budget gate.
fn trace_summary(before: cw_core::query::ScanCounters) {
    let d = cw_core::query::scan_counters().since(before);
    eprintln!(
        "[cw] scan summary: fused={} planned={} rows={}",
        d.fused, d.planned, d.rows
    );
}

fn cmd_exhibit(e: &'static dyn Exhibit, opts: RunOptions) -> i32 {
    let before = cw_core::query::scan_counters();
    let ex_opts = exhibit_options(opts);
    let configs = exhibit::required_configs(&[e], &ex_opts);
    let n_threads = threads(opts);
    let (bundles, world_errors) = obtain_all(configs, n_threads, !opts.no_cache);
    if !world_errors.is_empty() {
        print_failure_summary(&world_errors, &[]);
        return 4;
    }
    let mut cx = ExhibitCx::new(ex_opts, &bundles).with_threads(n_threads);
    let stats = cx.prefetch(&[e]);
    if opts.trace_scans {
        trace_prefetch(&stats);
    }
    let rendered = render_isolated(vec![e], &cx, n_threads).remove(0);
    if opts.trace_scans {
        trace_summary(before);
    }
    match rendered {
        Ok(text) => {
            print!("{text}");
            0
        }
        Err(err) => {
            print_failure_summary(&[], &[(e.name().to_string(), err)]);
            4
        }
    }
}

/// Render `exhibits` on the fleet workers, each isolated like a fleet job:
/// a render that panics (twice) becomes a [`JobError`] in its slot while
/// the others still render. `CW_INJECT_PANIC=<exhibit>` makes exactly that
/// render panic.
fn render_isolated(
    exhibits: Vec<&'static dyn Exhibit>,
    cx: &ExhibitCx<'_>,
    n_threads: usize,
) -> Vec<Result<String, JobError>> {
    let inject = std::env::var("CW_INJECT_PANIC").ok();
    fleet::try_map(exhibits, n_threads, |_, e| {
        if inject.as_deref() == Some(e.name()) {
            panic!("injected render panic for '{}'", e.name());
        }
        e.run(cx)
    })
}

fn cmd_all(opts: RunOptions) -> i32 {
    let started = Instant::now();
    let before = cw_core::query::scan_counters();
    let ex_opts = exhibit_options(opts);
    let n_threads = threads(opts);
    let configs = exhibit::required_configs(exhibit::REGISTRY, &ex_opts);
    let n_worlds = configs.len();
    let (bundles, world_errors) = obtain_all(configs, n_threads, !opts.no_cache);
    let mut cx = ExhibitCx::new(ex_opts, &bundles).with_threads(n_threads);
    // The registry-wide fusion step: every declared plan runs now, one
    // fused pass per destination fleet per bundle, all bundles' passes
    // spread over the fleet workers; renders hit the stores.
    let prefetch_stats = cx.prefetch(exhibit::REGISTRY);
    if opts.trace_scans {
        trace_prefetch(&prefetch_stats);
    }

    if let Err(e) = std::fs::create_dir_all("out") {
        eprintln!("[cw] error: create out/: {e}");
        return 3;
    }
    // Every render is isolated: a panicking exhibit (including one whose
    // world failed to obtain — its `cx.bundle` lookup panics) becomes a
    // JobError for its slot while the siblings keep rendering.
    let rendered = render_isolated(exhibit::REGISTRY.to_vec(), &cx, n_threads);

    let mut render_errors: Vec<(String, JobError)> = Vec::new();
    let mut io_error = false;
    let mut written = 0usize;
    for (e, r) in exhibit::REGISTRY.iter().zip(rendered) {
        match r {
            Ok(text) => {
                let path = format!("out/{}.txt", e.name());
                let write =
                    std::fs::File::create(&path).and_then(|mut f| f.write_all(text.as_bytes()));
                match write {
                    Ok(()) => written += 1,
                    Err(e) => {
                        eprintln!("[cw] error: write {path}: {e}");
                        io_error = true;
                    }
                }
            }
            Err(err) => render_errors.push((e.name().to_string(), err)),
        }
    }
    eprintln!(
        "[cw] rendered {written} of {} exhibits from {n_worlds} simulated worlds into out/ in {:.1}s",
        exhibit::REGISTRY.len(),
        started.elapsed().as_secs_f64()
    );
    if opts.trace_scans {
        trace_summary(before);
    }
    if !world_errors.is_empty() || !render_errors.is_empty() {
        print_failure_summary(&world_errors, &render_errors);
    }
    if io_error {
        3
    } else if !world_errors.is_empty() || !render_errors.is_empty() {
        4
    } else {
        0
    }
}

/// `cw degrade`: the fault-ladder preset of the `cw sweep` grid.
fn cmd_degrade(opts: RunOptions) -> i32 {
    let year = opts.year.unwrap_or(ScenarioYear::Y2021);
    cmd_grid(&SweepGrid::ladder(year, opts.seed), opts)
}

fn cmd_sweep(raw: Vec<String>) -> i32 {
    let (grid, opts) = parse_sweep_args(raw);
    cmd_grid(&grid, opts)
}

/// Parse `cw sweep`'s grid flags (`--scales`, `--years`, `--replicates`,
/// `--variants`) out of the raw argument list, handing everything else to
/// the shared [`parse_from`], and apply them to [`SweepGrid::standard`].
/// Exits 2 on malformed grid flags, matching the shared parser's behavior.
fn parse_sweep_args(raw: Vec<String>) -> (SweepGrid, RunOptions) {
    fn grid_usage_exit(problem: &str) -> ! {
        eprintln!("error: {problem}");
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    let mut scales = None;
    let mut years = None;
    let mut replicates = None;
    let mut variants = None;
    let mut rest = Vec::new();
    let mut it = raw.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| grid_usage_exit(&format!("{name} requires a value")))
        };
        match arg.as_str() {
            "--scales" => {
                scales = Some(
                    value("--scales")
                        .split(',')
                        .map(|s| parse_scale("--scales", s))
                        .collect(),
                );
            }
            "--years" => {
                years = Some(
                    value("--years")
                        .split(',')
                        .map(|y| match y.trim() {
                            "2020" => ScenarioYear::Y2020,
                            "2021" => ScenarioYear::Y2021,
                            "2022" => ScenarioYear::Y2022,
                            other => grid_usage_exit(&format!(
                                "unknown year '{other}' in --years (use 2020, 2021 or 2022)"
                            )),
                        })
                        .collect(),
                );
            }
            "--replicates" => {
                replicates = match value("--replicates").parse::<u64>() {
                    Ok(n) if n > MAX_REPLICATES => grid_usage_exit(&format!(
                        "--replicates must be at most {MAX_REPLICATES}, the most seeds a sweep runs"
                    )),
                    Ok(n) if n >= 1 => Some(n),
                    _ => grid_usage_exit("--replicates expects an integer >= 1"),
                };
            }
            "--variants" => {
                let ladder = cw_core::degrade::ladder();
                variants = Some(
                    value("--variants")
                        .split(',')
                        .map(|v| {
                            let v = v.trim();
                            ladder
                                .iter()
                                .find(|r| r.label == v)
                                .copied()
                                .unwrap_or_else(|| {
                                    grid_usage_exit(&format!(
                                    "unknown variant '{v}' (use none, mild, moderate or severe)"
                                ))
                                })
                        })
                        .collect(),
                );
            }
            other => rest.push(other.to_string()),
        }
    }
    let opts = parse_from(rest.into_iter());
    let mut grid = SweepGrid::standard(
        years.unwrap_or_else(|| vec![opts.year.unwrap_or(ScenarioYear::Y2021)]),
        opts.seed,
    );
    if let Some(variants) = variants {
        grid.variants = variants;
    }
    if let Some(scales) = scales {
        grid.scales = scales;
    }
    // The grid's world count, checked before the seed list is allocated.
    let seeds = replicates.unwrap_or(grid.seeds.len() as u64);
    let worlds = [grid.years.len(), grid.variants.len(), grid.scales.len()]
        .into_iter()
        .try_fold(seeds, |n, axis| n.checked_mul(axis as u64));
    if worlds.is_none() {
        grid_usage_exit("the sweep grid names more worlds than a u64 counts");
    }
    if let Some(n) = replicates {
        grid.seeds = (0..n).map(|i| opts.seed.wrapping_add(i)).collect();
    }
    for &mult in &grid.scales {
        check_scale("--scale × every --scales entry", opts.scale * mult);
    }
    (grid, opts)
}

/// Run a finding-stability grid through [`cw_core::sweep::report`] and
/// print the report: the one path behind `cw sweep` and `cw degrade`.
fn cmd_grid(grid: &SweepGrid, opts: RunOptions) -> i32 {
    let before = cw_core::query::scan_counters();
    let ex_opts = exhibit_options(opts);
    let base = ex_opts.config(opts.year.unwrap_or(ScenarioYear::Y2021));
    let use_cache = !opts.no_cache;
    // `CW_INJECT_PANIC=sweep:<i>` aborts on the i-th world-obtain — the
    // interrupted-sweep hook. The rerun resumes from the snapshot cache.
    let inject: Option<usize> = std::env::var("CW_INJECT_PANIC")
        .ok()
        .and_then(|v| v.strip_prefix("sweep:").and_then(|i| i.parse().ok()));
    let obtained = std::cell::Cell::new(0usize);
    let report = cw_core::sweep::report(grid, base, threads(opts), &|cfg| {
        let i = obtained.get();
        obtained.set(i + 1);
        if inject == Some(i) {
            panic!("injected sweep panic before obtain #{i}");
        }
        obtain(cfg, use_cache)
    });
    if opts.trace_scans {
        trace_summary(before);
    }
    print!("{report}");
    0
}

fn cmd_export(opts: RunOptions) -> i32 {
    match export(opts) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("[cw] error: export failed: {e}");
            match e {
                ExportError::World(_) => 4,
                ExportError::Io(..) => 3,
            }
        }
    }
}

/// Distinguish the export stages so I/O failures exit 3 and world
/// failures exit 4 without stringly-typed matching at the call site.
enum ExportError {
    World(JobError),
    Io(String, std::io::Error),
}

impl std::fmt::Display for ExportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExportError::World(e) => write!(f, "obtaining world: {e}"),
            ExportError::Io(what, e) => write!(f, "{what}: {e}"),
        }
    }
}

/// Midnight UTC on July 1 of `year`, the first day of the paper's
/// collection week: the time origin of the exported pcap.
fn collection_epoch(year: ScenarioYear) -> u32 {
    match year {
        ScenarioYear::Y2020 => 1_593_561_600,
        ScenarioYear::Y2021 => 1_625_097_600,
        ScenarioYear::Y2022 => 1_656_633_600,
    }
}

fn export(opts: RunOptions) -> Result<(), ExportError> {
    use std::io::BufWriter;
    let ex_opts = exhibit_options(opts);
    let configs = exhibit::required_configs(
        &[exhibit::find("table1").expect("table1 registered")],
        &ex_opts,
    );
    let (bundles, mut world_errors) = obtain_all(configs, threads(opts), !opts.no_cache);
    if let Some(e) = world_errors.pop() {
        return Err(ExportError::World(e));
    }
    let (_, bundle) = bundles.iter().next().expect("one world");
    print!("{}", cw_core::report::header_str("Dataset export"));
    let stem = format!("out/cloud_watching_{}", bundle.config.year.year());
    let create = |ext: &str| {
        let path = format!("{stem}.{ext}");
        std::fs::File::create(&path)
            .map(BufWriter::new)
            .map_err(|e| ExportError::Io(format!("create {path}"), e))
    };
    let written = |ext: &str| {
        let path = format!("{stem}.{ext}");
        move |e| ExportError::Io(format!("write {path}"), e)
    };
    std::fs::create_dir_all("out").map_err(|e| ExportError::Io("create out/".into(), e))?;
    let ds = &bundle.dataset;
    ds.write_csv(create("csv")?).map_err(written("csv"))?;
    ds.write_jsonl(create("jsonl")?).map_err(written("jsonl"))?;
    ds.write_pcap(create("pcap")?, collection_epoch(bundle.config.year))
        .map_err(written("pcap"))?;
    println!("wrote {} events to {stem}.{{csv,jsonl,pcap}}", ds.len());
    Ok(())
}
