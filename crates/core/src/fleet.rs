//! The parallel scenario fleet runner.
//!
//! Every `cw` command ultimately runs a handful of *independent* jobs — one
//! world per (year, seed, fault plan), one fused scan pass in the plan
//! prefetch ([`crate::exhibit::ExhibitCx::prefetch`]), or one render per
//! exhibit.
//! A world is built on one thread by design (the
//! event loop wires agents with `Rc<RefCell<…>>`, so a
//! [`Scenario`](crate::scenario::Scenario) is not
//! `Send`), but the jobs themselves share nothing: this module spreads them
//! across worker threads while keeping every result bit-identical to a
//! serial execution. It has three entry points:
//!
//! - [`try_map`]: one `Result` per job, so a caller can degrade per job;
//! - [`try_map_timed`]: [`try_map`] plus per-worker wall clocks;
//! - [`map`]: the infallible wrapper, for callers that cannot degrade.
//!
//! # Determinism contract
//!
//! Three rules make thread count an *observable no-op*:
//!
//! 1. **No shared RNG state.** A job draws every random stream from its
//!    own spec (a world from its config's seed, split into sub-streams
//!    with [`cw_netsim::rng::fork_seed`]), never from state another job
//!    touches, so scheduling cannot perturb any stream.
//! 2. **Per-run construction inside the worker.** A run's world is built,
//!    executed, and folded to a `Send` summary entirely on one worker
//!    thread (the `ScenarioFactory` pattern — closures build the non-`Send`
//!    scenario locally rather than sending it across threads).
//! 3. **Results by input index.** Workers claim jobs from one shared
//!    cursor, each taking the next unclaimed input index when it finishes
//!    its last job, so which worker runs a job depends on timing. A job
//!    never learns its worker, and results are reassembled by input
//!    index, never in completion order.
//!
//! Together: `threads = 1` and `threads = N` produce byte-identical output,
//! so `--threads`/`CW_THREADS` is purely a wall-clock knob. That also makes
//! it safe to *cap* the worker count at the machine's available parallelism
//! (see [`map`]): requesting 8 workers on a 1-core box used to run ~15%
//! *slower* than serial from pure oversubscription — context switching and
//! cache thrash with zero latency to hide — while producing the same bytes.
//! [`try_map_timed`] exposes per-worker wall clocks so that kind of
//! contention is visible in bench output instead of inferred.
//!
//! # Panic isolation and graceful degradation
//!
//! A fleet job that panics must not take its siblings' finished work with
//! it. Every job runs under `catch_unwind`, is retried **once** with
//! identical inputs (deterministic: a reproducible panic fails twice, a
//! flaky environmental one gets a second chance), and a job that fails
//! both attempts becomes a structured [`JobError`] in that input slot —
//! the other slots still carry their results. [`try_map`] /
//! [`try_map_timed`] expose the per-job `Result`s; the infallible [`map`]
//! wrapper runs *every* job first and only then panics with an aggregate
//! report, so a caller that can't degrade still never loses sibling
//! diagnostics. The retry happens on the worker that claimed the job,
//! straight after the failed attempt, and isolation is sound because jobs
//! share nothing mutable — each builds its world locally and returns
//! owned `Send` data.
//!
//! # Example: thread count never changes results
//!
//! ```
//! use cw_core::fleet;
//!
//! // Any embarrassingly-parallel job list; here, deriving per-run seeds.
//! let specs: Vec<u64> = (0..16).collect();
//! let serial = fleet::map(specs.clone(), 1, |i, s| {
//!     cw_netsim::rng::fork_seed(0xC10D, *s ^ i as u64)
//! });
//! let parallel = fleet::map(specs, 4, |i, s| {
//!     cw_netsim::rng::fork_seed(0xC10D, *s ^ i as u64)
//! });
//! assert_eq!(serial, parallel);
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Decide how many worker threads a fleet should use.
///
/// Precedence: an explicit request (e.g. a `--threads N` flag) wins; then
/// the `CW_THREADS` environment variable; then the machine's available
/// parallelism. The result is clamped to at least 1. `CW_THREADS` values
/// that fail to parse are ignored rather than fatal, so a stray export
/// can't break a pipeline.
pub fn resolve_threads(explicit: Option<usize>) -> usize {
    explicit
        .or_else(|| {
            std::env::var("CW_THREADS")
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
        })
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .max(1)
}

/// Always 1: a world has one build. Kept for cwbench until the next
/// benchmark PR.
pub fn resolve_shards(_explicit: Option<usize>) -> usize {
    1
}

/// Wall-clock accounting for one fleet worker, as reported by
/// [`try_map_timed`]. Timing is observability only — it never feeds back
/// into scheduling, so recording it cannot perturb results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerTiming {
    /// Worker index.
    pub worker: usize,
    /// Number of jobs the worker claimed and executed.
    pub jobs: usize,
    /// Wall time from the worker's start to its finding no job left, in
    /// seconds.
    pub busy_secs: f64,
}

/// A structured per-job failure from a fleet run: the job panicked on
/// both its first attempt and its single deterministic retry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobError {
    /// Input index of the failed spec.
    pub index: usize,
    /// How many times the job was attempted (always 2: first run + retry).
    pub attempts: u32,
    /// The final panic payload, rendered to text.
    pub message: String,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "job {} failed after {} attempts: {}",
            self.index, self.attempts, self.message
        )
    }
}

impl std::error::Error for JobError {}

/// Render a panic payload to text (panics carry `&str` or `String` in
/// practice; anything else gets a placeholder).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run one job with panic isolation and a single deterministic retry.
///
/// The retry re-invokes `job` with byte-identical inputs on the worker
/// that claimed it: a reproducible panic fails twice and surfaces as a
/// [`JobError`]; a flaky environmental failure (e.g. a transient
/// allocation failure) gets exactly one second chance. Two attempts, no
/// more — retry counts must not depend on runtime conditions.
fn run_job<S, T, F>(job: &F, index: usize, spec: &S) -> Result<T, JobError>
where
    F: Fn(usize, &S) -> T + Sync,
{
    match catch_unwind(AssertUnwindSafe(|| job(index, spec))) {
        Ok(t) => Ok(t),
        Err(first) => {
            eprintln!(
                "cw: warning: fleet job {index} panicked ({}); retrying once",
                panic_message(first)
            );
            match catch_unwind(AssertUnwindSafe(|| job(index, spec))) {
                Ok(t) => Ok(t),
                Err(second) => Err(JobError {
                    index,
                    attempts: 2,
                    message: panic_message(second),
                }),
            }
        }
    }
}

/// Run `job` over every spec on up to `threads` workers, returning results
/// in input order.
///
/// Workers pull jobs from one shared cursor: each claims the next
/// unclaimed spec when it finishes its last, so a long job holds up only
/// its own worker while the others drain the rest. Which worker runs a
/// spec depends on timing, which the results cannot observe: `job` is not
/// told its worker, and results are reassembled by input index — the
/// determinism contract (although `job` must itself be deterministic for
/// results to be reproducible). A caller that knows its jobs' sizes can
/// list the longest first. With `threads <= 1` (or a single spec) the
/// fleet degrades to a plain serial loop on the calling thread with no
/// thread machinery at all.
///
/// The worker count is additionally capped at the machine's available
/// parallelism: spawning more compute-bound workers than cores cannot
/// finish any sooner — it only adds context-switch and cache-thrash cost —
/// and on a single-core box the cap degrades all the way to the serial
/// loop (an earlier floor of 2 workers made `--threads 8` *slower* than
/// serial there). The cap is safe *because* of the contract: results are
/// reassembled by input index, so the number of workers is unobservable in
/// the output.
///
/// `job` receives `(index, &spec)` so per-run seeds can be derived from
/// the stream id; specs stay owned by the fleet so a panicked job can be
/// retried against the same spec. Only `Send` results come back.
///
/// A job that panics twice (once plus the single retry) makes this call
/// panic — but
/// only after **every** job has run, with an aggregate report of all
/// failures. Callers that can degrade per-job should use [`try_map`].
pub fn map<S, T, F>(specs: Vec<S>, threads: usize, job: F) -> Vec<T>
where
    S: Send + Sync,
    T: Send,
    F: Fn(usize, &S) -> T + Sync,
{
    let results = try_map(specs, threads, job);
    let errors: Vec<&JobError> = results.iter().filter_map(|r| r.as_ref().err()).collect();
    if !errors.is_empty() {
        let report = errors
            .iter()
            .map(|e| e.to_string())
            .collect::<Vec<_>>()
            .join("; ");
        panic!("{} fleet job(s) failed: {report}", errors.len());
    }
    results
        .into_iter()
        .map(|r| r.expect("errors were just reported"))
        .collect()
}

/// Fault-tolerant [`map`]: every spec's slot carries `Ok(result)` or the
/// [`JobError`] that job died with, in input order. One poisoned job no
/// longer costs its siblings' finished work.
pub fn try_map<S, T, F>(specs: Vec<S>, threads: usize, job: F) -> Vec<Result<T, JobError>>
where
    S: Send + Sync,
    T: Send,
    F: Fn(usize, &S) -> T + Sync,
{
    try_map_timed(specs, threads, job).0
}

/// [`try_map`] plus per-worker wall-time accounting, so a bench harness can
/// see where fleet time actually goes (e.g. oversubscription on a small
/// machine shows up as every worker being slow, not one straggler) — the
/// primitive every other fleet entry point is built on.
pub fn try_map_timed<S, T, F>(
    specs: Vec<S>,
    threads: usize,
    job: F,
) -> (Vec<Result<T, JobError>>, Vec<WorkerTiming>)
where
    S: Send + Sync,
    T: Send,
    F: Fn(usize, &S) -> T + Sync,
{
    let n = specs.len();
    // Cap workers at the hardware: an oversubscribed CPU-bound fleet is
    // strictly slower than a right-sized one, and the input-order merge
    // makes the cap invisible in the results. On a single-core machine the
    // cap collapses to the serial loop below.
    let hardware = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let workers = threads.min(n).min(hardware).max(1);
    if workers <= 1 || n <= 1 {
        let start = std::time::Instant::now();
        let out: Vec<Result<T, JobError>> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| run_job(&job, i, s))
            .collect();
        let timing = WorkerTiming {
            worker: 0,
            jobs: n,
            busy_secs: start.elapsed().as_secs_f64(),
        };
        return (out, vec![timing]);
    }
    // The shared cursor: the next input index no worker has claimed.
    let cursor = AtomicUsize::new(0);
    let (job, specs, cursor) = (&job, &specs, &cursor);
    let mut out: Vec<Option<Result<T, JobError>>> = (0..n).map(|_| None).collect();
    let mut timings = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    let start = std::time::Instant::now();
                    let mut results: Vec<(usize, Result<T, JobError>)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(s) = specs.get(i) else { break };
                        results.push((i, run_job(job, i, s)));
                    }
                    let timing = WorkerTiming {
                        worker: w,
                        jobs: results.len(),
                        busy_secs: start.elapsed().as_secs_f64(),
                    };
                    (results, timing)
                })
            })
            .collect();
        for h in handles {
            // Workers cannot panic out of run_job's catch_unwind; a join
            // error here would mean the claim loop itself is broken.
            let (results, timing) = h.join().expect("fleet worker infrastructure panicked");
            timings.push(timing);
            for (i, t) in results {
                out[i] = Some(t);
            }
        }
    });
    let out = out
        .into_iter()
        .map(|t| t.expect("the cursor hands out every index exactly once"))
        .collect();
    (out, timings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_orders_results_by_input_for_any_thread_count() {
        let specs: Vec<u32> = (0..23).collect();
        let serial = map(specs.clone(), 1, |i, s| (i, s * 2));
        for threads in [2, 3, 8, 64] {
            assert_eq!(map(specs.clone(), threads, |i, s| (i, s * 2)), serial);
        }
    }

    #[test]
    fn map_handles_empty_and_singleton() {
        assert_eq!(map(Vec::<u8>::new(), 8, |_, s| *s), Vec::<u8>::new());
        assert_eq!(map(vec![7u8], 8, |i, s| s + i as u8), vec![7]);
    }

    /// One attempt counter per job.
    fn counters(n: usize) -> Vec<AtomicUsize> {
        (0..n).map(|_| AtomicUsize::new(0)).collect()
    }

    fn attempts(runs: &[AtomicUsize]) -> Vec<usize> {
        runs.iter().map(|r| r.load(Ordering::SeqCst)).collect()
    }

    #[test]
    fn the_cursor_runs_every_job_once_and_returns_input_order() {
        for threads in 1..=8 {
            for n in 0..=40 {
                let runs = counters(n);
                let specs: Vec<usize> = (0..n).map(|i| i * 7).collect();
                let (results, timings) = try_map_timed(specs, threads, |i, s| {
                    runs[i].fetch_add(1, Ordering::SeqCst);
                    (i, *s)
                });
                let want: Vec<Result<(usize, usize), JobError>> =
                    (0..n).map(|i| Ok((i, i * 7))).collect();
                assert_eq!(results, want, "threads {threads}, {n} jobs");
                assert_eq!(attempts(&runs), vec![1; n], "threads {threads}, {n} jobs");
                assert_eq!(timings.iter().map(|t| t.jobs).sum::<usize>(), n);
            }
        }
    }

    #[test]
    fn try_map_isolates_a_panicking_job_and_keeps_sibling_results() {
        for threads in 1..=8 {
            let runs = counters(9);
            let specs: Vec<u32> = (0..9).collect();
            let results = try_map(specs, threads, |i, s| {
                runs[i].fetch_add(1, Ordering::SeqCst);
                if *s == 4 {
                    panic!("injected failure on spec {s}");
                }
                s * 10
            });
            assert_eq!(results.len(), 9);
            for (i, r) in results.iter().enumerate() {
                if i == 4 {
                    let err = r.as_ref().unwrap_err();
                    assert_eq!(err.index, 4);
                    assert_eq!(err.attempts, 2);
                    assert!(err.message.contains("injected failure on spec 4"));
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i as u32 * 10);
                }
            }
            // The failed job ran twice, every other job once.
            assert_eq!(attempts(&runs), [1, 1, 1, 1, 2, 1, 1, 1, 1]);
        }
    }

    #[test]
    fn flaky_job_succeeds_on_the_single_retry() {
        for threads in 1..=8 {
            let runs = counters(12);
            let results = try_map(vec![0u8; 12], threads, |i, _| {
                if runs[i].fetch_add(1, Ordering::SeqCst) == 0 && i == 5 {
                    panic!("transient");
                }
                42u8
            });
            assert_eq!(results, vec![Ok(42); 12]);
            let mut want = vec![1; 12];
            want[5] = 2;
            assert_eq!(attempts(&runs), want);
        }
    }

    #[test]
    fn map_aggregates_failures_only_after_all_jobs_ran() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let completed = AtomicU32::new(0);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            map(vec![0u32, 1, 2, 3], 2, |_, s| {
                if *s == 1 {
                    panic!("boom");
                }
                completed.fetch_add(1, Ordering::SeqCst);
                *s
            })
        }));
        let err = outcome.unwrap_err();
        let msg = panic_message(err);
        assert!(msg.contains("1 fleet job(s) failed"), "got: {msg}");
        assert!(
            msg.contains("job 1 failed after 2 attempts: boom"),
            "got: {msg}"
        );
        // The three healthy jobs all ran to completion before the panic.
        assert_eq!(completed.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn resolve_threads_precedence() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(0)), 1);
        // CW_THREADS / autodetect paths at least yield a positive count.
        assert!(resolve_threads(None) >= 1);
    }
}
