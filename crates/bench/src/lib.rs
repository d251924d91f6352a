//! Flag parsing for the `cw` multicall CLI.
//!
//! Every command accepts `--scale <f64>`, `--seed <u64>`, `--threads <N>`,
//! `--no-cache` and (where relevant) `--year <2020|2021|2022>`; defaults
//! regenerate the published EXPERIMENTS.md values.
//!
//! Commands that need more than one simulated world go through
//! [`cw_core::fleet`]: each world is obtained (snapshot cache or fresh
//! simulation) inside a worker thread, and exhibits render from the shared
//! bundles in canonical order — so stdout is byte-identical for any
//! `--threads` value (see `docs/ARCHITECTURE.md`). `--threads` beats the
//! `CW_THREADS` environment variable, which beats autodetection. The
//! snapshot cache can never change results either ([`cw_core::snapshot`]),
//! so `--no-cache` is purely a wall-clock/debugging knob.

use cw_core::scenario::DEFAULT_SEED;
use cw_netsim::fault::FaultPlan;
use cw_scanners::population::ScenarioYear;

/// Parsed command-line options.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Population scale.
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Year override.
    pub year: Option<ScenarioYear>,
    /// Worker threads for fleet commands (`None` = `CW_THREADS` or
    /// autodetect; see [`cw_core::fleet::resolve_threads`]).
    pub threads: Option<usize>,
    /// Bypass the snapshot cache (always simulate, never read or write
    /// `out/.cache`). Results are identical either way.
    pub no_cache: bool,
    /// Deterministic measurement-fault plan (`--loss`, `--outage`,
    /// `--outage-windows`, `--truncate`, `--truncate-to`,
    /// `--telescope-sample`). Unlike threads and cache this *is* part
    /// of world identity: any non-none plan changes the output bytes and
    /// the snapshot addresses.
    pub fault: FaultPlan,
    /// Print per-bundle plan-fusion stats and an end-of-run scan-counter
    /// summary on stderr (`--trace-scans`). Purely observational: rendered
    /// stdout bytes are identical either way.
    pub trace_scans: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            scale: 1.0,
            seed: DEFAULT_SEED,
            year: None,
            threads: None,
            no_cache: false,
            fault: FaultPlan::none(),
            trace_scans: false,
        }
    }
}

/// The flag summary shared by usage/error messages.
pub const USAGE: &str =
    "usage: cw <exhibit|list|all|export|degrade|sweep> [--scale <f64>] [--seed <u64>] \
     [--year <2020|2021|2022>] [--threads <N>] [--no-cache] [--trace-scans] \
     [--loss <f64>] [--outage <f64>] [--outage-windows <N>] \
     [--truncate <f64>] [--truncate-to <bytes>] [--telescope-sample <N>]\n\
sweep only: [--scales <csv of f64, default 1,10,100>] [--years <csv of years>] \
     [--replicates <N>] [--variants <csv of none|mild|moderate|severe>]";

/// The largest scale a world can be built at: `--scale`, and every
/// `cw sweep` base × multiplier, must stay at or below it.
///
/// A world's dataset numbers its rows with `u32` (its destination index
/// holds one `u32` per row), and a scale-1 world records fewer than 1.6M
/// rows, linearly in scale. So every world up to 2048 records fewer than
/// 2048 × 1.6M ≈ 3.3 × 10^9 rows, inside the 2^32 that `u32` numbers.
///
/// The population draws every scanner's source addresses from one /8
/// ([`cw_scanners::SrcAllocator`], 2^24 addresses), linearly in scale, and
/// each paper year draws fewer than 2^12 of them at scale 1 (2022 draws the
/// most, 3,950), so the /8 would last up to 2^24 / 2^12 = 4096. The
/// pre-sized allocations stay small up to the ceiling: the indexers'
/// telescope sample takes 2,000 addresses per unit of scale (16 MB at
/// 2048), and the interner reserves 10,000 payload slots per unit, far
/// inside its `u32` ids. Above the ceiling those sizes grow unchecked:
/// `--scale 1e7` used to abort the process on one 80 GB allocation. A
/// world below the ceiling can still need more memory than a given machine
/// has.
pub const MAX_SCALE: f64 = 2048.0;

/// The most replicates `cw sweep --replicates` accepts. Each one is one
/// more world per (year, variant, scale) cell, built one after another: a
/// scale-1 world takes 1.1–1.4 s on a 2-vCPU box and caches a ~52 MB
/// snapshot, so 1,000 replicates at ×1 are already about 20 minutes and
/// 52 GB, while a seed-noise calibration needs tens to hundreds. Unbounded,
/// `--replicates 100000000000000000` aborted on an 800 PB allocation.
pub const MAX_REPLICATES: u64 = 1_000;

fn usage_exit(problem: &str) -> ! {
    eprintln!("error: {problem}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// Parse the value of `--scale` or one entry of `--scales`. Only finite
/// positive numbers are scales: anything else (`0`, `-1`, `NaN`, `inf`,
/// or `1e999`, which parses to `inf`) prints a usage message and exits
/// with status 2. A world's scale must also pass [`check_scale`].
pub fn parse_scale(flag: &str, raw: &str) -> f64 {
    scale_value(raw).unwrap_or_else(|problem| usage_exit(&format!("{flag} {problem}")))
}

/// Exit with status 2 if a world would be built at `scale`, above
/// [`MAX_SCALE`]; `what` names the flags that set it. Never clamps.
pub fn check_scale(what: &str, scale: f64) {
    if scale > MAX_SCALE {
        usage_exit(&format!(
            "{what} must be at most {MAX_SCALE}, the largest scale a world can be built at"
        ));
    }
}

fn scale_value(raw: &str) -> Result<f64, &'static str> {
    match raw.trim().parse::<f64>() {
        Ok(scale) if scale.is_finite() && scale > 0.0 => Ok(scale),
        Ok(_) => Err("must be a finite positive number"),
        Err(_) => Err("expects a number"),
    }
}

/// Parse flag arguments from an explicit iterator (everything after the
/// subcommand). Malformed arguments print a usage message and exit with
/// status 2.
pub fn parse_from(args: impl Iterator<Item = String>) -> RunOptions {
    let mut opts = RunOptions::default();
    let mut args = args;
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| usage_exit(&format!("{name} requires a value")))
        };
        match arg.as_str() {
            "--scale" => {
                opts.scale = parse_scale("--scale", &value("--scale"));
                check_scale("--scale", opts.scale);
            }
            "--seed" => {
                opts.seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| usage_exit("--seed expects an unsigned integer"));
            }
            "--year" => {
                opts.year = Some(match value("--year").as_str() {
                    "2020" => ScenarioYear::Y2020,
                    "2021" => ScenarioYear::Y2021,
                    "2022" => ScenarioYear::Y2022,
                    other => {
                        usage_exit(&format!("unknown year '{other}' (use 2020, 2021 or 2022)"))
                    }
                })
            }
            "--threads" => {
                let n: usize = value("--threads")
                    .parse()
                    .unwrap_or_else(|_| usage_exit("--threads expects an unsigned integer"));
                if n == 0 {
                    usage_exit("--threads must be at least 1");
                }
                opts.threads = Some(n);
            }
            "--no-cache" => {
                opts.no_cache = true;
            }
            "--trace-scans" => {
                opts.trace_scans = true;
            }
            "--loss" => {
                opts.fault.flow_loss = value("--loss")
                    .parse()
                    .unwrap_or_else(|_| usage_exit("--loss expects a number"));
                if !(0.0..=1.0).contains(&opts.fault.flow_loss) {
                    usage_exit("--loss must be in [0, 1]");
                }
            }
            "--outage" => {
                opts.fault.outage = value("--outage")
                    .parse()
                    .unwrap_or_else(|_| usage_exit("--outage expects a number"));
                if !(0.0..1.0).contains(&opts.fault.outage) {
                    usage_exit("--outage must be in [0, 1)");
                }
            }
            "--outage-windows" => {
                let n: u32 = value("--outage-windows")
                    .parse()
                    .unwrap_or_else(|_| usage_exit("--outage-windows expects an unsigned integer"));
                if n == 0 {
                    usage_exit("--outage-windows must be at least 1");
                }
                opts.fault.outage_windows = n;
            }
            "--truncate" => {
                opts.fault.truncation = value("--truncate")
                    .parse()
                    .unwrap_or_else(|_| usage_exit("--truncate expects a number"));
                if !(0.0..=1.0).contains(&opts.fault.truncation) {
                    usage_exit("--truncate must be in [0, 1]");
                }
            }
            "--truncate-to" => {
                opts.fault.truncate_to = value("--truncate-to")
                    .parse()
                    .unwrap_or_else(|_| usage_exit("--truncate-to expects a byte count"));
            }
            "--telescope-sample" => {
                let n: u32 = value("--telescope-sample").parse().unwrap_or_else(|_| {
                    usage_exit("--telescope-sample expects an unsigned integer")
                });
                if n == 0 {
                    usage_exit("--telescope-sample must be at least 1");
                }
                opts.fault.telescope_sample = n;
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            other => usage_exit(&format!("unknown argument '{other}'")),
        }
    }
    opts
}

/// Worker-thread count for these options (flag, then `CW_THREADS`, then
/// autodetect).
pub fn threads(opts: RunOptions) -> usize {
    cw_core::fleet::resolve_threads(opts.threads)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs<'a>(args: &'a [&'a str]) -> impl Iterator<Item = String> + 'a {
        args.iter().map(|s| s.to_string())
    }

    #[test]
    fn parse_from_defaults_and_flags() {
        let d = parse_from(strs(&[]));
        assert_eq!(d.scale, 1.0);
        assert_eq!(d.seed, DEFAULT_SEED);
        assert!(d.year.is_none());
        assert!(d.threads.is_none());
        assert!(!d.no_cache);
        assert!(!d.trace_scans);

        let o = parse_from(strs(&[
            "--scale",
            "0.25",
            "--seed",
            "7",
            "--year",
            "2020",
            "--threads",
            "3",
            "--no-cache",
            "--trace-scans",
        ]));
        assert_eq!(o.scale, 0.25);
        assert_eq!(o.seed, 7);
        assert_eq!(o.year, Some(ScenarioYear::Y2020));
        assert_eq!(o.threads, Some(3));
        assert!(o.no_cache);
        assert!(o.trace_scans);
    }

    #[test]
    fn scales_must_be_finite_and_positive() {
        for bad in ["inf", "-inf", "NaN", "1e999", "0", "-1", "x"] {
            assert!(scale_value(bad).is_err(), "{bad} must be rejected");
        }
        assert_eq!(scale_value("0.25"), Ok(0.25));
        assert_eq!(parse_scale("--scale", "2"), 2.0);
        // The x100 `cw sweep` grid at scale 1 is buildable.
        check_scale("--scale", 100.0);
        check_scale("--scale", MAX_SCALE);
    }

    #[test]
    fn max_scale_fits_every_population_in_its_source_space() {
        // Linear in scale with a fixed part, so fewer than 2^12 draws at
        // scale 1 bound the draws at MAX_SCALE by 2^24.
        let d = cw_honeypot::deployment::Deployment::standard();
        for year in [
            ScenarioYear::Y2020,
            ScenarioYear::Y2021,
            ScenarioYear::Y2022,
        ] {
            let config = cw_scanners::population::PopulationConfig {
                year,
                seed: DEFAULT_SEED,
                scale: 1.0,
            };
            let drawn = cw_scanners::population::build(&config, d).source_addrs;
            assert!(
                f64::from(drawn) * MAX_SCALE <= f64::from(1u32 << 24),
                "{year:?} draws {drawn} source addresses at scale 1"
            );
        }
    }

    #[test]
    fn parse_from_fault_flags() {
        assert!(parse_from(strs(&[])).fault.is_none());
        let o = parse_from(strs(&[
            "--loss",
            "0.1",
            "--outage",
            "0.05",
            "--outage-windows",
            "2",
            "--truncate",
            "0.25",
            "--truncate-to",
            "32",
            "--telescope-sample",
            "4",
        ]));
        assert!(!o.fault.is_none());
        assert_eq!(o.fault.flow_loss, 0.1);
        assert_eq!(o.fault.outage, 0.05);
        assert_eq!(o.fault.outage_windows, 2);
        assert_eq!(o.fault.truncation, 0.25);
        assert_eq!(o.fault.truncate_to, 32);
        assert_eq!(o.fault.telescope_sample, 4);
    }
}
