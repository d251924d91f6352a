//! The content-addressed simulate-once cache.
//!
//! Simulating a full-scale year takes seconds; every one of the paper's
//! tables and figures consumes the *same* handful of simulation results.
//! This module persists each result ([`SimBundle`]) to disk keyed by the
//! exact configuration that produced it, so a `(year, seed, scale,
//! horizon)` world is simulated once per machine, ever — every later
//! exhibit render pays only a deserialization.
//!
//! # Addressing
//!
//! A snapshot's filename is the SHA-256 of a canonical key string over the
//! full configuration *and* the snapshot format version. Changing any
//! parameter — or the wire format — changes the address, so stale entries
//! are never read; they are simply unreferenced files (the cache directory
//! can be deleted at any time).
//!
//! # Integrity
//!
//! Snapshots use the sealed container of [`cw_netsim::snap`]: magic bytes,
//! format version, exact payload length, and a SHA-256 trailer. A load
//! reads the file once, hashing and decoding as it goes, and keeps nothing
//! it decoded until the trailer matches. A missing, truncated, corrupted,
//! version-mismatched, or wrong-config file is treated identically: the
//! load quietly fails and [`load_or_run`] re-simulates. The cache can
//! therefore never change results, only wall-clock time — the same
//! contract the fleet runner makes for thread count.
//!
//! A file that *exists* at the right address but fails to load is not
//! silently re-simulated over: [`load_or_run`] renames it to
//! `<name>.cwsnap.corrupt` with a one-line stderr warning before healing
//! the cache, so repeated corruption (a flaky disk, a truncating sync
//! tool) stays visible instead of costing a quiet re-simulation each run.
//! [`load_from`] itself stays a pure read with no side effects.
//!
//! # Location
//!
//! `out/.cache` under the working directory by default (next to the
//! `out/*.txt` exhibits), overridable with the `CW_CACHE_DIR` environment
//! variable. Writes are atomic (temp file + rename), so concurrent
//! processes at worst both simulate; they never observe a half-written
//! snapshot.

use crate::bundle::SimBundle;
use crate::scenario::ScenarioConfig;
use cw_honeypot::deployment::Deployment;
use cw_netsim::sha256::sha256_hex;
use cw_netsim::snap::{self, SnapReader};
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Process-global count of actual simulations performed by
/// [`load_or_run`]/[`load_or_run_in`] (cache hits don't count). The
/// observability hook behind the sweep cache-contract tests: a sweep over
/// an N-cell grid must raise this by exactly the number of *distinct*
/// worlds cold, and by zero warm. Monotone for the life of the process —
/// callers measure deltas.
static SIMULATIONS: AtomicU64 = AtomicU64::new(0);

/// The current value of the process-global simulate-call counter:
/// incremented once per actual simulation inside
/// [`load_or_run`]/[`load_or_run_in`], never by a cache hit. Monotone for
/// the life of the process — callers measure deltas around the code under
/// test (the sweep cache-contract tests in `tests/sweep.rs`).
pub fn simulations_performed() -> u64 {
    SIMULATIONS.load(Ordering::Relaxed)
}

/// Environment variable overriding the cache directory.
pub const CACHE_DIR_ENV: &str = "CW_CACHE_DIR";

/// Default cache directory, relative to the working directory.
pub const DEFAULT_CACHE_DIR: &str = "out/.cache";

/// The active cache directory: `CW_CACHE_DIR` if set, else
/// [`DEFAULT_CACHE_DIR`].
pub fn cache_dir() -> PathBuf {
    std::env::var_os(CACHE_DIR_ENV)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(DEFAULT_CACHE_DIR))
}

/// The canonical content key of a configuration. Scale enters as its IEEE
/// bit pattern — `0.06` and `0.06000000000000001` are different worlds and
/// must not share a snapshot.
fn cache_key(config: &ScenarioConfig) -> String {
    let mut canonical = format!(
        "cw-snapshot-v{} year={} seed={:#x} scale={:016x} horizon={}",
        snap::FORMAT_VERSION,
        config.year.year(),
        config.seed,
        config.scale.to_bits(),
        config.horizon.secs(),
    );
    // A non-trivial fault plan is a different world and gets its own
    // address; the no-fault plan appends nothing, so fault-free worlds
    // keep the exact addresses they had before fault injection existed.
    if let Some(fragment) = config.fault.cache_key_fragment() {
        canonical.push_str(&fragment);
    }
    sha256_hex(canonical.as_bytes())
}

/// The snapshot path for `config` inside `dir`.
pub fn snapshot_path_in(dir: &Path, config: &ScenarioConfig) -> PathBuf {
    dir.join(format!("{}.cwsnap", cache_key(config)))
}

/// The temp file [`store_in`] writes `config`'s snapshot to before it
/// renames it into place. The name is unique per process: two concurrent
/// writers race benignly, since rename is atomic and both carry identical
/// bytes.
fn temp_path_in(dir: &Path, config: &ScenarioConfig) -> PathBuf {
    dir.join(format!("{}.tmp.{}", cache_key(config), std::process::id()))
}

/// Seal and atomically write `bundle` into `dir`, returning the path.
///
/// The snapshot is encoded, hashed and written in one pass
/// ([`snap::seal_into`]) into a temp file, which is then renamed into
/// place; neither the payload nor the sealed container is held in memory.
/// On any error the temp file is removed before the error is returned, so
/// a failed write (a full disk, say) leaves no partial file behind.
pub fn store_in(dir: &Path, bundle: &SimBundle) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = snapshot_path_in(dir, &bundle.config);
    let tmp = temp_path_in(dir, &bundle.config);
    let written = File::create(&tmp)
        .and_then(|mut file| snap::seal_into(&mut file, |w| bundle.snap_write(w)))
        .and_then(|()| std::fs::rename(&tmp, &path));
    if let Err(e) = written {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    Ok(path)
}

/// Load the snapshot for `config` from `dir`, or `None` if it is missing
/// or fails *any* integrity check (container header and length, decode,
/// trailing bytes, container hash, config match). Every failure is silent
/// by design — the caller's recovery is always the same: re-simulate.
///
/// The file is read once, as a stream ([`SnapReader::open`]): the header
/// is checked against the file's size before anything is decoded, and the
/// payload is hashed and decoded a chunk at a time, so the file is never
/// held whole beside the world it decodes. The decoded bundle is returned
/// only after [`SnapReader::finish`] has matched the SHA-256 trailer.
pub fn load_from(dir: &Path, config: &ScenarioConfig) -> Option<SimBundle> {
    let file = File::open(snapshot_path_in(dir, config)).ok()?;
    let size = file.metadata().ok()?.len();
    let mut r = SnapReader::open(file, size).ok()?;
    let bundle = SimBundle::snap_read(&mut r, Deployment::standard()).ok()?;
    r.finish().ok()?;
    // Hash collisions aside, this catches a mis-filed snapshot (e.g. a
    // copied cache file) — the decoded config must be the requested one.
    if !bundle.matches(config) {
        return None;
    }
    Some(bundle)
}

/// Where a bundle came from, with the wall time each path cost — `cw`
/// prints these timings on stderr as it obtains each world.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Provenance {
    /// Deserialized from a valid snapshot.
    CacheHit {
        /// Wall time of the read + decode.
        read_secs: f64,
    },
    /// Simulated (cache disabled, cold, or invalid).
    Simulated {
        /// Wall time of the simulation + bundle fold.
        sim_secs: f64,
        /// Wall time of the snapshot write, when one was attempted and
        /// succeeded (`None` with the cache disabled or on I/O failure).
        write_secs: Option<f64>,
    },
}

impl Provenance {
    /// Was this bundle served from the cache?
    pub fn is_hit(&self) -> bool {
        matches!(self, Provenance::CacheHit { .. })
    }
}

/// Load `config`'s bundle from the active cache directory, simulating (and
/// filling the cache) on any miss. `use_cache = false` always simulates
/// and leaves the cache untouched — results are identical either way.
pub fn load_or_run(config: ScenarioConfig, use_cache: bool) -> (SimBundle, Provenance) {
    load_or_run_in(&cache_dir(), config, use_cache)
}

/// Move an unloadable snapshot aside as `<name>.cwsnap.corrupt`, warning
/// on stderr. Never touches rendered output; a failed rename only means
/// the corrupt file stays where it was (and will be re-reported).
fn quarantine(path: &Path) {
    let mut quarantined = path.as_os_str().to_os_string();
    quarantined.push(".corrupt");
    let dst = PathBuf::from(quarantined);
    match std::fs::rename(path, &dst) {
        Ok(()) => eprintln!(
            "cw: warning: quarantined corrupt snapshot {} (kept as {})",
            path.display(),
            dst.display()
        ),
        Err(e) => eprintln!(
            "cw: warning: corrupt snapshot {} could not be quarantined: {e}",
            path.display()
        ),
    }
}

/// [`load_or_run`] against an explicit cache directory.
pub fn load_or_run_in(
    dir: &Path,
    config: ScenarioConfig,
    use_cache: bool,
) -> (SimBundle, Provenance) {
    if use_cache {
        let start = Instant::now();
        if let Some(bundle) = load_from(dir, &config) {
            return (
                bundle,
                Provenance::CacheHit {
                    read_secs: start.elapsed().as_secs_f64(),
                },
            );
        }
        // Distinguish a cold cache from a damaged one: a file at the right
        // address that failed to load is quarantined (rename + warning) so
        // repeated corruption is visible; the re-simulation below then
        // heals the cache with a fresh snapshot.
        let path = snapshot_path_in(dir, &config);
        if path.exists() {
            quarantine(&path);
        }
    }
    let start = Instant::now();
    SIMULATIONS.fetch_add(1, Ordering::Relaxed);
    let bundle = SimBundle::run(config);
    let sim_secs = start.elapsed().as_secs_f64();
    let write_secs = if use_cache {
        let start = Instant::now();
        // A failed write only means the next run simulates again.
        store_in(dir, &bundle)
            .ok()
            .map(|_| start.elapsed().as_secs_f64())
    } else {
        None
    };
    (
        bundle,
        Provenance::Simulated {
            sim_secs,
            write_secs,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cw_scanners::population::ScenarioYear;

    fn test_config(seed: u64) -> ScenarioConfig {
        ScenarioConfig::fast(ScenarioYear::Y2021)
            .with_seed(seed)
            .with_scale(0.01)
    }

    /// A fresh per-test cache directory (env vars are process-global, so
    /// tests pass directories explicitly instead of touching CW_CACHE_DIR).
    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cw-snap-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn equivalent(a: &SimBundle, b: &SimBundle) -> bool {
        a.matches(&b.config)
            && a.stats == b.stats
            && a.dataset.len() == b.dataset.len()
            && a.telescope.total_packets() == b.telescope.total_packets()
            && a.reputation.counts() == b.reputation.counts()
            && a.censys_indexed == b.censys_indexed
    }

    #[test]
    fn miss_then_hit_round_trip() {
        let dir = test_dir("hit");
        let cfg = test_config(41);
        let (cold, p1) = load_or_run_in(&dir, cfg, true);
        assert!(!p1.is_hit());
        assert!(snapshot_path_in(&dir, &cfg).exists());
        let (warm, p2) = load_or_run_in(&dir, cfg, true);
        assert!(p2.is_hit());
        assert!(equivalent(&cold, &warm));
        // Disabling the cache bypasses the valid snapshot entirely.
        let (fresh, p3) = load_or_run_in(&dir, cfg, false);
        assert!(!p3.is_hit());
        assert!(equivalent(&cold, &fresh));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_snapshot_is_silently_resimulated() {
        let dir = test_dir("corrupt");
        let cfg = test_config(42);
        let (cold, _) = load_or_run_in(&dir, cfg, true);
        let path = snapshot_path_in(&dir, &cfg);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x5A;
        std::fs::write(&path, &bytes).unwrap();
        // load_from is a pure read: no quarantine side effects.
        assert!(load_from(&dir, &cfg).is_none());
        assert!(path.exists());
        let (again, p) = load_or_run_in(&dir, cfg, true);
        assert!(!p.is_hit());
        assert!(equivalent(&cold, &again));
        // The corrupt file was quarantined, not overwritten, and the
        // re-simulation healed the cache in passing.
        let mut corrupt = path.as_os_str().to_os_string();
        corrupt.push(".corrupt");
        assert!(PathBuf::from(corrupt).exists());
        assert!(load_from(&dir, &cfg).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_snapshot_is_silently_resimulated() {
        let dir = test_dir("truncate");
        let cfg = test_config(43);
        let _ = load_or_run_in(&dir, cfg, true);
        let path = snapshot_path_in(&dir, &cfg);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
        assert!(load_from(&dir, &cfg).is_none());
        let (_, p) = load_or_run_in(&dir, cfg, true);
        assert!(!p.is_hit());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_mismatched_snapshot_is_silently_resimulated() {
        let dir = test_dir("version");
        let cfg = test_config(44);
        let _ = load_or_run_in(&dir, cfg, true);
        let path = snapshot_path_in(&dir, &cfg);
        let mut bytes = std::fs::read(&path).unwrap();
        // The u32 format version sits right after the 8 magic bytes.
        bytes[8] = 0xFE;
        std::fs::write(&path, &bytes).unwrap();
        assert!(load_from(&dir, &cfg).is_none());
        let (_, p) = load_or_run_in(&dir, cfg, true);
        assert!(!p.is_hit());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn misfiled_snapshot_is_rejected_by_config_match() {
        let dir = test_dir("misfiled");
        let cfg_a = test_config(45);
        let cfg_b = test_config(46);
        let _ = load_or_run_in(&dir, cfg_a, true);
        // Plant seed-45's (internally valid) snapshot at seed-46's address.
        std::fs::rename(
            snapshot_path_in(&dir, &cfg_a),
            snapshot_path_in(&dir, &cfg_b),
        )
        .unwrap();
        assert!(load_from(&dir, &cfg_b).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A write that fails partway (here on a full device) returns the
    /// error and leaves neither the temp file nor a snapshot behind.
    #[cfg(target_os = "linux")]
    #[test]
    fn failed_store_removes_its_temp_file() {
        let dir = test_dir("full");
        let bundle = SimBundle::run(test_config(47));
        std::fs::create_dir_all(&dir).unwrap();
        let tmp = temp_path_in(&dir, &bundle.config);
        std::os::unix::fs::symlink("/dev/full", &tmp).unwrap();
        assert!(store_in(&dir, &bundle).is_err());
        assert!(
            std::fs::symlink_metadata(&tmp).is_err(),
            "temp file left behind"
        );
        assert!(!snapshot_path_in(&dir, &bundle.config).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn distinct_configs_have_distinct_addresses() {
        let dir = PathBuf::from("out/.cache");
        let base = test_config(1);
        let paths = [
            snapshot_path_in(&dir, &base),
            snapshot_path_in(&dir, &base.with_seed(2)),
            snapshot_path_in(&dir, &base.with_scale(0.02)),
            snapshot_path_in(
                &dir,
                &ScenarioConfig {
                    year: ScenarioYear::Y2020,
                    ..base
                },
            ),
        ];
        for (i, a) in paths.iter().enumerate() {
            for b in &paths[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn fault_plans_address_distinct_worlds() {
        use cw_netsim::fault::FaultPlan;
        let dir = PathBuf::from("out/.cache");
        let base = test_config(1);
        // The none plan and an all-defaults config share an address — the
        // legacy fault-free address is unchanged.
        assert_eq!(
            snapshot_path_in(&dir, &base),
            snapshot_path_in(&dir, &base.with_fault(FaultPlan::none())),
        );
        // Every distinct non-trivial plan gets its own address.
        let lossy = base.with_fault(FaultPlan {
            flow_loss: 0.1,
            ..FaultPlan::none()
        });
        let lossier = base.with_fault(FaultPlan {
            flow_loss: 0.2,
            ..FaultPlan::none()
        });
        assert_ne!(
            snapshot_path_in(&dir, &base),
            snapshot_path_in(&dir, &lossy)
        );
        assert_ne!(
            snapshot_path_in(&dir, &lossy),
            snapshot_path_in(&dir, &lossier)
        );
    }
}
